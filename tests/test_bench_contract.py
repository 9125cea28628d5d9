"""The bench's use of the package, checked with the standard-library ast.

Every name that a file under bench/ reads from sgcorona, through
`import sgcorona as sg`, `from sgcorona import cli` and the like, must
exist on the package, so that pruning a public name cannot silently
break bench/run.py.  The bench files are only parsed, never imported.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_refs(tree):
    """Dotted names under sgcorona that the module imports or reads."""
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "sgcorona":
                    aliases[a.asname or "sgcorona"] = a.name if a.asname else "sgcorona"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sgcorona":
            for a in node.names:
                refs.add(f"{node.module}.{a.name}")
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in aliases:
                refs.add(".".join([aliases[node.id], *reversed(chain)]))
    return refs


def _exists(dotted):
    """Whether the dotted name resolves, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part)
    return True


def test_bench_names_exist_on_package():
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        refs |= _package_refs(ast.parse(path.read_text(encoding="utf-8")))
    # the parse found the bench's graph, product, spectra and CLI calls
    assert {"sgcorona.SignedGraph", "sgcorona.add_vertex_corona", "sgcorona.spectrum",
            "sgcorona.cli.parse_graph"} <= refs
    missing = sorted(r for r in refs if not _exists(r))
    assert not missing, f"bench/ reads names the package does not have: {missing}"


def test_checks_catch_defects():
    source = ("import sgcorona as sg\nfrom sgcorona import cli, nope\n"
              "sg.balance(sg.exactpoly.char_poly)\ncli.gone\nsg.SignedGraph(1).n\n")
    refs = _package_refs(ast.parse(source))
    assert refs == {"sgcorona.balance", "sgcorona.exactpoly", "sgcorona.exactpoly.char_poly",
                    "sgcorona.cli", "sgcorona.nope", "sgcorona.cli.gone",
                    "sgcorona.SignedGraph"}
    assert sorted(r for r in refs if not _exists(r)) == ["sgcorona.cli.gone", "sgcorona.nope"]
