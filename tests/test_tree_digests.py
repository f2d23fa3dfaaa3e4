"""Pinned digests of ``hesskit tree`` stdout: all four kinds in both formats,
on every partition with n <= 6 and every h with n <= 5.

The golden files pin a few trees with n <= 4; these pin every byte of the
output over the whole range, so a renderer change that moves one byte fails.
Each digest is the sha256 of the stdouts of one kind, format and n,
concatenated in the order of ``oracles.partitions(n)`` or
``hessenberg_functions(n)``.  They were recorded from the renderers before
these were rewritten for speed, and the rewrite left every byte as it was.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from hesskit import hessenberg_functions
from hesskit.cli import main

from oracles import partitions

DIGESTS = {
    ("gp", "dot", 1): "1ba1a11daa408d8859a97b8525def18e6cc3d1d81b4984b9fdeb5f3b9b910ee0",
    ("gp", "dot", 2): "29ec1d6617632b823a4d4efa9b6a1804491704e7dca78a99138a4acbb8af6a45",
    ("gp", "dot", 3): "a42759f6f02bb51fda644cf9f9c51de61a1fc5fda66fc9eba46a8ada81f16ea8",
    ("gp", "dot", 4): "21c792b1cfa24e8b8d9e286d1ddb8c553b537e5f60ce718f07a080d5021c96c6",
    ("gp", "dot", 5): "25a30ef0603bbf36bb438c9c8bbf3b55317f5e22b420a954c54c188aacafd7d7",
    ("gp", "dot", 6): "173f8f28a988b036957d6e1ac2ba562e235b482e31a51e041287c756fbf74e5e",
    ("gp", "json", 1): "c68e209db5d61c2c9558d953981833d35d60bab9452f646d46adf0a56d555d2c",
    ("gp", "json", 2): "f11caf8e42529023abc28011e0899059118cd70606a1819670ee7051f10dd7dd",
    ("gp", "json", 3): "2b057bcb5041ef72111000666f80c4018bd3cbcce6806bf03cead9d92134056c",
    ("gp", "json", 4): "027bf669754363beb14af38353e97f4a228766369b429d9e09ceea899dbf34b6",
    ("gp", "json", 5): "1a5308aee26c3d00c5a8dd5f4794b10059bbefb798e45e2787b00066fae5b39b",
    ("gp", "json", 6): "4ce45197e4e1eadb7fd4e4854ea2c9c71d025faa4ac887488fb93f47ea0b1532",
    ("modified-gp", "dot", 1): "693a2c0c569597cbe74bcd86e542a8bdd4292dc134eebcbf780fd8399589fa89",
    ("modified-gp", "dot", 2): "972c88f9b9b5b450a7a273a2dd7019b6872e21ca11623cbd25fc61b448b991ba",
    ("modified-gp", "dot", 3): "8bbfe0fc6d5a8af44a821d30f7d971bfb75bbbf73521efbe5dec9c68e03ef572",
    ("modified-gp", "dot", 4): "dca3b3a5d375b02b2bcfd76d63c13b8400cce96a3f3dea7fff66922ca8192b60",
    ("modified-gp", "dot", 5): "3407a599fffbfcf49a30f1401db7a120de6ac1c7a616c673529e6e95b8a17916",
    ("modified-gp", "dot", 6): "86adc18a30f07bd908a73d9d3fce7500af16d29057f6f0bdfc409d4b70e2da88",
    ("modified-gp", "json", 1): "e2f6f74dda74da60abab6694b9dcf54abacd0f92711089477a17fcb724d33555",
    ("modified-gp", "json", 2): "b313f4eb33a4e689dad7559f0c0cf79e805a792b810f197e5f9803043828ed3f",
    ("modified-gp", "json", 3): "004eb536c4a89554a76414c820f847b006f78a0c8afa7f922386a19fda60de44",
    ("modified-gp", "json", 4): "75082ccd80bc8b25e8f1491a5797b9dfdb89a179b645065fcf601bdcec8227bc",
    ("modified-gp", "json", 5): "434d6f8353b521cd8e6cbf61da9bd931cf6ec5678dd5e108b06c5c181c9f2937",
    ("modified-gp", "json", 6): "3739dd3c5d0650c68338b15f3cb3832b112260e9bded547761e7153f30ccf45f",
    ("h", "dot", 1): "490c47b02eed24ff42b659d38f75ba923b3d67e53134a8e3f2e3c26925838133",
    ("h", "dot", 2): "95a6fb1d8f0b305cdd771208e2bfc5335c24b74979ef8de900de8fadac6f1fd6",
    ("h", "dot", 3): "371b26c7102435f4d7078bdafde8fc8e4671768fa5b06267abe6dc991cd656be",
    ("h", "dot", 4): "690734362f968069630dc27e0249e63c74051ababb8aabff381d8b5fd8648adc",
    ("h", "dot", 5): "ae9e4ba12ea60902c61cba6725efa5dc6cebd19ee1943a8a850daa8e66bc9cc3",
    ("h", "json", 1): "aa3291cc586bae2d49b900345685e9c934141b23a48909527e7522e152a5ba8f",
    ("h", "json", 2): "6bdc3115ab6f469d2c117cc68c687855505a61da910525755b19a2cd84dab4e9",
    ("h", "json", 3): "08be088c8602b5e78ed55e60a43abd836e68faeef25034beed5407994dae3909",
    ("h", "json", 4): "4ee6270de51011fa25b5c630a3fa8a1dda5a5b6dc6ceb1753401c9496fd3b31c",
    ("h", "json", 5): "4c630f99e1c835ad2dd021133895408d51a846548e6608ed6e65e3b4f1ed0ccc",
    ("h-tableau", "dot", 1): "19d485d4b04b28c88e003b66938fb6b032a06ceff820ad35413ef60642d3bbe5",
    ("h-tableau", "dot", 2): "541abb0e30a7e94f8b78ad243fc4dcbe2e444f77622978254f2ec669c7983fcf",
    ("h-tableau", "dot", 3): "7ff55e48a65042cf7065eb62cc7825f5e25f47d9388846810cf6aca83c4686db",
    ("h-tableau", "dot", 4): "2da808e32bf2da05a66b4f97ef16fa56dc92ad3010180a38dda6d3efae47de1b",
    ("h-tableau", "dot", 5): "164421490dd90658ee2ddd283f216790759396aa5cac1d6587471e89c95127b4",
    ("h-tableau", "json", 1): "5482efc4df076e52e03cc7027b8ed07c8847a523d6f80669a6e171b829d7626b",
    ("h-tableau", "json", 2): "437fd2b1f5e1192b21365ce5a0e29c7d2281038eaf7051961894672179346847",
    ("h-tableau", "json", 3): "4d95b93b6433e9c430b53a9e32084b1e6a72a4426e544aa9926a583fba6d434d",
    ("h-tableau", "json", 4): "a0ae168b1324003ac372c45153adca17059a678c32e0651e18da45bd26c436c7",
    ("h-tableau", "json", 5): "ad2a23bbb097d423cafb6808e511153e34c2fdbc3e195b6a65d7087b841beea8",
}


def inputs(kind: str, n: int) -> list[tuple[str, str]]:
    if kind in ("gp", "modified-gp"):
        return [("--mu", ",".join(map(str, mu))) for mu in partitions(n)]
    return [("--h", str(h)) for h in hessenberg_functions(n)]


@pytest.mark.parametrize("kind, fmt, n", list(DIGESTS))
def test_tree_output_digest(kind, fmt, n):
    digest = hashlib.sha256()
    for option, value in inputs(kind, n):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["tree", "--kind", kind, option, value, "--format", fmt]) == 0
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == DIGESTS[kind, fmt, n]
