"""The connected graphs on 2 to 7 vertices, as a packed constant table.

Read & Wilson, *An Atlas of Graphs* (Oxford, 1998), list every graph on
at most 7 vertices, one per isomorphism class, in a fixed order (by
edge count, then degree sequence, then automorphism count); networkx
ships that list as graph_atlas_g().  `_CONNECTED[n]` holds the connected
graphs of order n in atlas order, 995 in all, each as one hex bitmask
over the vertex pairs (i, j), i < j, in itertools.combinations(range(n),
2) order: bit k set means the k-th pair is an edge.  The equienergetic
search scans these graphs; tests/test_spectra.py checks the table
against networkx graph for graph and edge for edge.
"""

from __future__ import annotations

from itertools import combinations

__all__ = ["connected_graphs"]

_CONNECTED = {
    2: """
    1
""",
    3: """
    3 7
""",
    4: """
    34 0d 3c 2d 2f 3f
""",
    5: """
    348 2a8 099 3c8 09b 2b8 1e1 299 1f1 3e1 3c9 29d 07e 3f8 3ec 2f9 17e 3ed 3dd
    3fd 3ff
""",
    6: """
    6910 03a1 3007 2461 1258 5211 7910 348c 7308 14b8 007e 24e2 206e 3c42 7007
    1278 06d8 1329 5231 56c8 0fa1 226e 46e8 4f81 421f 13a9 228f 16d8 5aa2 132d
    06f8 132b 68e2 32d2 5272 5235 3239 7027 027f 226f 0ee3 13e9 52e9 0b6b 12f9
    0b4f 7aa2 4277 2b4b 56d8 1a3b 3d98 5e31 50f3 1a3d 46f8 7329 5731 1b39 5ab1
    0f67 0b6f 56ad 7ae2 4b67 7d98 1a3f 50fb 51f3 427f 333d 527e 5676 1b3b 3d9a
    7a39 1b3d 5e35 5b87 5ab5 56ed 16fd 7d99 73e9 567e 5e76 53f9 3b3d 1bbb 6fc3
    7b39 5773 5776 78f3 17ef 2fe7 56fd 66ef 79f3 5fda 55f7 3f9b 5fb5 76ef 0fff
    7f9b 57f7 777b 57ff 777f 7ffb 7fff
""",
    7: """
    1a4420 007841 0061c1 0601c1 1021c1 0061c8 00604d 064181 007184 06004d
    048861 02003f 0087c8 1a2230 04016d 107841 0007cc 040d49 0c0949 162850
    1070c1 007981 1061c1 0601cc 166041 00614d 02091b 0025cc 10091b 12081b
    060949 10ca41 140949 1061c8 142849 030913 160852 10604d 0061cc 06604c
    10e0c8 1041cc 12091a 148861 0007cd 00078f 00178d 0087cc 11a846 00978c
    11a056 0c98c1 1a4c21 1c4c60 1a4861 00278d 00784d 162852 00ee41 0071c5
    06198c 008d53 04458d 00358d 048d43 018d43 00c78c 14085b 04598c 046949
    0061cd 1c4c41 12281b 00798c 0cc8c1 10ee01 142949 00e1cc 0039ac 10784c
    06007b 050d43 108d43 008e71 10d14c 009617 01f109 10cb41 0c8e41 139109
    061136 14198c 162149 0d0943 10cb48 108e70 13c109 048a71 049871 108953
    161a48 041a74 10398c 11d109 18cc11 162849 04cc51 1061cc 148c51 068871
    0b2909 0008ff 0048df 010ccf 0079c3 003dc3 008fc9 088bc9 002ecb 0c89c9
    0689c9 002aeb 008dd9 05e942 002aaf 1008df 0889d9 04c9c9 15a942 1208cf
    0089f9 06984d 102acb 0da942 00c9d9 102a8f 046a87 012aab 1408d7 0c9998
    00a87b 069998 1039c3 09b318 04f851 108dc9 04d998 0499b8 1205d3 00a87d
    0c19d8 1489c9 0cb851 14b851 1204db 00ac5b 08a85b 0459d8 02a85d 00e85d
    082ae3 01b718 1089d9 04bc51 04b871 06b851 1214d3 078a49 00ac5d 0c9a51
    082aa7 00ae59 0419f8 05e960 00aa79 158a49 08a85d 1604d3 14a951 058e49
    0619d8 0c08d7 058a69 08aa59 049a71 092aa3 04a971 1ac470 10e943 1499a8
    0e1998 162952 1c2998 07c843 161a52 1489e1 048e69 10cb49 138943 16085b
    018e69 162a0b 0e1951 1061cd 101fb0 12291b 10798c 068933 068c71 0d0965
    162949 134159 10e1cc 148c71 16184d 149c51 158c49 0cc871 007ac7 003ec7
    002ecf 002aef 022acf 0c994d 07a9c2 046ac7 05e9c2 14295b 102acf 0da9c2
    142ac7 15b318 00a87f 00e85f 05b718 02a85f 0481fb 0487d3 0408ff 038a5d
    10a85f 0688de 0483f3 017b1a 086ac7 00ea5b 1483d3 08a85f 0698d6 0448df
    11b31a 04c8de 013b3a 018e5d 0c98d6 082ae7 10aa5b 1481db 01b33a 04c3d3
    04f855 15a859 00aa7d 1408df 18994d 048cde 098a5d 0da859 01ca5d 05a879
    14b855 00ae5d 02aa5b 05e9e0 0cee41 04b875 02aa5d 00ea5d 182ac7 049cd6
    1498d6 01b71a 05ac59 04bc55 08aa5d 0cab07 04a975 000ff9 163a52 0007fe
    1ec470 1acc31 00ed53 00e973 1ec458 0cbc43 0061fd 165a52 00cb73 0cc85b
    10f98c 148dc3 1ccc70 19cc31 152c59 1090fe 1081fe 18dc31 1067cc 03712b
    07332a 158d4c 07f049 1c8d43 168e51 12691b 158e49 149d51 09ad43 14a86b
    19a20f 14da51 10d99c 1f8849 00ef70 0cda51 0c1b35 0f21cc 12aa59 172949
    14dc51 19a859 06c879 1e8871 0c8e71 1c8873 168c71 108f72 198e49 14a971
    0852fc 1ccc51 0c94d6 18de11 10798d 10e1cd 1661cc 149c71 0e4a55 06a971
    0c99cd 0999cd 08b9cd 00f9cd 00b9ed 0db319 058fc9 0d8bc9 05b719 04d8de
    158bc9 04f8d6 048fd9 06b8d6 0c8bd9 1f6e08 01aa7d 04b8f6 00af5b 148bd9
    058be9 057b83 068bd9 00eb5b 14b8d6 11aa5d 153b83 1499cd 01ae5d 08ab5b
    10ab5b 0d3b83 049cde 10d9cd 15aa59 049ed3 05ae59 04cbd9 04bcd6 13f720
    05a5d3 149ad3 069ad3 09aa5d 02ab5b 049ed6 05e1d3 053ba3 07f720 1f6630
    00efc3 098fc9 1e99a4 0cf853 06887f 10f9c3 173952 0cf859 00ec7b 1cee30
    0fe630 1f9470 14b86b 1c986b 04ff03 0cfa51 0cc87b 158dc9 10f9cc 0fad30
    163b49 00ff8c 1ecc31 1067cd 1c994d 12a87b 0e887b 18a87b 06c87d 1f2871
    1798c3 09b9a5 07aaa3 100fbe 0ed951 1f8a51 173a49 189b4d 1079cd 0f6615
    0aeb43 1a3a53 1b8b49 13c879 1e8e51 14de51 09bc4d 1cce51 1dd264 18da33
    13e869 051fac 1ce9b0 0d44e7 16295b 05ef03 07f530 0ec85b 0d41cf 00ee79
    10f1cd 15ac59 172959 1c9a4d 0f2a59 10e7cc 1669cc 17186d 077127 05ac79
    17564c 19a959 11db19 16e1cc 103bad 166f0c 149e4d 166959 159c4d 15cd49
    0eda51 04ed55 0f664c 0f1a4d 065eb8 0c9e74 1a299b 15c44f 009fcf 0999cf
    013fc7 033bc7 0c99dd 049ddd 013be7 0499fd 04d9dd 051dcf 0d19cf 109dcf
    05a7d3 15ba55 1247d7 07ba55 093bc7 05e3d3 1246df 06bb9a 04bbba 1499dd
    14bb55 09bb1b 01bb3b 1646d7 03bb1b 04bb75 1519cf 1fcca4 0cdf49 1f9b14
    039cd7 021bf7 157b49 17998d 001ffd 047ccf 0eb94d 005fdd 0c78cf 0f807f
    1069df 09997d 041f7d 003dfd 0fd84d 179b34 009f7d 189bcd 0f19cd 058d7d
    085bdd 143f4d 0996cf 06a96f 126b5b 0979cd 07f343 1691cf 19ccc7 1099fd
    02bb6d 1f8e49 0f79b0 10ee79 1ece31 15ae59 1c9b4d 07a753 1d6ea8 16ef30
    097747 0f9a4d 15a5d3 109f6d 087f8d 055f55 0d1f55 051f75 0eda4d 171eb8
    1ed654 1e3f24 0fcc69 093f87 07a5d3 0adb5c 071ebc 1af714 0a4f7c 1d5db0
    1f5554 19f724 0bf730 05dd55 159d55 0faf22 16bdb0 19b955 1f8b62 1bb3a2
    0fe3a2 15ddb0 0f9e70 0f3e2c 1f19f0 1f9e03 0b3eac 1a3eb8 12bbac 0b3bac
    1d4cf8 0e3eac 129b7c 0dd674 1cad74 1c9e74 16798d 0f694d 0ceeb8 05f6ac
    13ed19 19cc9b 1ecc71 0eb36c 1ffb20 0d99cf 0497df 16783f 1fbf20 1ff704
    0fe03f 17ff20 1f7ba0 05bf1b 1599cf 1aff90 0f7fa0 1f6671 005bff 0799ed
    0399fd 0999fd 1ff1b0 0919ff 109fcf 1f7aa8 17fd30 1f79b0 1999cf 0ffe30
    15a7d3 0e997d 05e7d3 101bff 007ff5 16f9cc 1df724 0f1fcc 0331ff 1119ff
    0629ff 01b4ff 1faf22 06fecc 17ef28 0da5db 14af1f 09acdf 14eb57 1ecb9c
    1fe3a2 19bb1b 0da1fb 061fbd 1f9e70 0fa3d3 06e3cf 1c4e5f 0bff30 0f7db0
    1919df 1bf1f0 149afe 06eb1f 0f3a5d 1bfb21 0ffe21 0fe879 1fa86b 13f8cd
    1faa59 14cfe5 0961ff 139bf4 0fa96d 1f2e69 16ef38 1ceeb8 1eba53 0fe671
    19ccbb 0fce78 0cafe6 14ef4d 0bef38 0f3eac 1bcb78 1abeb8 1f8d72 09fe71
    1fc1f2 073dad 0e8f76 0decf8 07f4f8 1f694d 16f9b1 0f79b1 19ccdb 049fdf
    1ffba0 1bf03f 1dffa0 1ff744 0f99cf 00dfdf 09b9ef 0c93ff 0987ff 1de43f
    1f613f 0da3fb 05e7db 0fe43f 0f9ebc 1d99cf 15ebcb 1dff24 1ff364 0fff30
    1ffb21 1ff1f0 0a3bdf 15be5d 1deee8 177fa8 16ffb0 18abdf 04affe 1fe671
    16e63f 1bccbb 1e75bc 061ffd 1bf72c 1e4b3f 1fbca9 1ddeb8 1f9e78 1f3bac
    1b75bc 1f74ad 0fa47f 0f1e3f 173dbc 1dbcad 16feb8 1f6b6c 17f4f8 17fd31
    1f7aa9 0f3dbc 1f79b1 1f69f8 13ff38 0f3dad 0b7fb8 0eeef8 19def8 1aef5c
    1a7f9c 1d9cf3 067fbc 05bfdb 05bbfb 1387ff 1f963f 1f9e3d 0f9fbc 15bf5d
    1fd6b5 1f9eb9 1fbfa2 1f1fbc 1fbb9c 1fbbac 03dedf 0fdb8f 1f99cf 1efc6d
    1ff4ad 1e77bc 1eccf7 1bf73c 1fbcf8 1f3dbc 1abdbd 0bf63f 1f75ad 1bf5b5
    1ebdb5 1df7a6 0f7fb8 1abfbc 1f3dad 1ddef8 1ff707 1eef27 1bf727 16ef7c
    06ffbc 1afb9d 0fee79 05fbdf 1fe7bc 1fbc3f 0ffff0 1fbbbc 1ff6bc 1f9e3f
    1f77bc 1ff6b5 1ff5b5 1df4bf 1bf7bc 1f3dbd 1abfbd 06e7ff 16ef3f 13f73f
    1bff39 1f7bad 1afbbd 0f7fbc 05ffdf 0c7fff 1ff6bd 1bf7bd 1ffb9d 1fff35
    1f7fbc 1bff3d 1e7fbd 0f7ffc 15bfff 03ffff 1efb7f 1f9ff7 1f7faf 1f9fff
    1efff7 1ffff7 1fffff
""",
}


def connected_graphs(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The connected graphs of order n (2..7) in atlas order.

    Each graph is its edge pairs (i, j), i < j, sorted lexicographically.
    """
    pairs = list(combinations(range(n), 2))
    return [tuple(p for k, p in enumerate(pairs) if mask >> k & 1)
            for mask in (int(word, 16) for word in _CONNECTED[n].split())]
