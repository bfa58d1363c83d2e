"""Whole-output pins for the ``fibsum`` command line.

Each case runs one command through ``fibsum.cli.main`` and pins its exit
code and the sha256 of everything it wrote: stdout, stderr and the
``--out`` file, joined by NUL bytes.  Every subcommand is covered in text
and ``--json`` mode at small n, ``invert`` on upper and lower input, with
seeded ``search`` and ``verify``, plus ``search`` at its default budget at
n = 7 and 8 and one refusal for each of exit codes 1, 2 and 3.  A change to
any byte of any of these outputs fails here; re-record a digest only for an
intended output change, and say which in CHANGES.md.
"""

import contextlib
import hashlib
import io
import sys
from unittest import mock

import pytest

from fibsum import fibonacci
from fibsum.cli import main

OUT = "<out>"  # replaced by a file path under the test's tmp_path
TRIANGULAR = "# a unit triangular matrix\n4\n1 1 0 1\n0 1 1 0\n0 0 1 1\n0 0 0 1\n"
RATIONAL = "3\n1 1/2 0\n0 1 1/3\n0 0 1\n"
LOWER = "4\n1 0 0 0\n1 1 0 0\n0 1 1 0\n1 0 1 1\n"
LOWER_RATIONAL = "3\n1 0 0\n1 1 0\n0 1/2 1\n"
SEEDED_VERIFY = ("--samples", "12", "--count", "9", "--bound", "5", "--seed", "7")

# The search at the default budget of 200 restarts x 300 steps, at
# n = 7 and 8, in both directions and at two seeds.
SEARCH_AT_SCALE = [
    (("search", "--n", n, "--direction", direction, "--restarts", "200",
      "--max-steps", "300", "--seed", seed, "--json"), "", 0, digest)
    for (n, direction, seed), digest in (
        (("7", "max", "1"),
         "bc6bbc2d68b1ae29a86227b6f26e60b268a0e502704da2042107f31e4ced1f21"),
        (("7", "min", "1"),
         "f0423152cd53fe72534a01bf4012938ea9490872601fc139e9cb7ab8885e33d6"),
        (("8", "max", "1"),
         "742f59bc1a25c216aaa87a47825b196ab515402a0b3e0e0d3fd989128056929b"),
        (("8", "min", "1"),
         "f0c81620bdecae3b296a89fc268d40eeb3eadf152e5c867f3e7e41fb3a556930"),
        (("7", "max", "2026"),
         "6608d00505de0ced2678ca348f0136027c1ec26ebe8476120ba6146d455dd9cf"),
        (("7", "min", "2026"),
         "d90bde6f970838878c72af601ea145354c7584eb348ee4d1d410f486536d3d6f"),
        (("8", "max", "2026"),
         "1385c27597f5434ac3e94583a8d59e082bef38c33ceb74937d8c367df8e8a318"),
        (("8", "min", "2026"),
         "0fd46dba9316b4bde8fdd6ba517088d0e48aa7ae88fd50818524e9b57451247a"),
    )]

# (argv, stdin, exit code, sha256)
CASES = [
    (("fib", "30"), "", 0,
     "1c7c56f109bfc510431058a8ed338433422e75d5af15ade51f8542c325e7cc86"),
    (("fib", "30", "--json"), "", 0,
     "1392c2a1c973e99e6e5e336634ec85424717f7f3d12990c7d4e39889e283a0fc"),
    (("invert",), TRIANGULAR, 0,
     "2eee09449ec9bac72517d49ff926b9cdfa7766533fb47b3f9d5538dd3d08380c"),
    (("invert", "--json"), TRIANGULAR, 0,
     "71c0a9c8a62acb9015963d95ede8ad9a82c18d658cdba4a4225613dcd35b86f9"),
    (("invert", "--json"), RATIONAL, 0,
     "93c31f1dc7ee643384b9db1d0baa91c44b6f44e5b96c29960196c5f724cedc79"),
    (("invert", "--out", OUT), TRIANGULAR, 0,
     "0e4443a462ed857c993d4359972860506ce8a028fdd5f1c3335ac1edc05d51f8"),
    (("invert", "--out", OUT, "--json"), RATIONAL, 0,
     "c1d370474f05fed842fa53c5049cdf5adade9dbb4dc9ae40db5559291cfa29bb"),
    (("construct", "--n", "7", "--sum", "-3"), "", 0,
     "3a2ae6289a5fabfb065177639956b5e035c4af40a28448f944055a543b7d7498"),
    (("construct", "--n", "7", "--sum", "-3", "--json"), "", 0,
     "6af94be3539ee6fbf788018b7ed0dd0bd782e180c51d30ba9bed6baf7d95309e"),
    (("construct", "--n", "5", "--sum", "4", "--out", OUT), "", 0,
     "240d48e260ec6b3e34b315952d34811e02aef581be5ce94731902523fcab881f"),
    (("extremal", "--n", "8", "--l", "2"), "", 0,
     "067ace083a651341528ee00c018e039826803b5073daf65eb4e57922ed63c72d"),
    (("extremal", "--n", "9", "--l", "3", "--json"), "", 0,
     "70f2476edf0477f32c4cca7fe2cdedf014cb76341ff88591ae9ff209875f6edb"),
    (("extremal", "--n", "7", "--l", "3", "--out", OUT), "", 0,
     "fa72ef0a2a0b65937f1b0721a8849fb887de7dd324e934e94590d8544c37fd93"),
    (("wmatrix", "--n", "6", "--det", "7"), "", 0,
     "fdc8dc287658be6f08bcce6a9038b4c4ec537b0facb2cfc145c4b8a9ce33f278"),
    (("wmatrix", "--n", "6", "--det", "7", "--json"), "", 0,
     "711cfee86a05ab6b9bebd41bbfe6821c24f87ff58383219bdce975b839ef8d69"),
    (("wmatrix", "--n", "5", "--det", "0"), "", 0,
     "226de895f48f07ae83cbc54061f76d083da4a047dc7c5ea0223b62bb33051430"),
    (("wmatrix", "--n", "5", "--det", "0", "--json"), "", 0,
     "df77d90f228ecd531d81ce51f748ee7f3bc550d430600176bc726bfdc464d630"),
    (("wmatrix", "--n", "4", "--det", "2", "--out", OUT), "", 0,
     "3a0f789eaf39d08c2702aafe08a94cd51c83f43b667cdc922aa5e3f0fd9c739d"),
    (("enumerate", "--family", "triangular", "--n", "5"), "", 0,
     "b0955c60fadd1a48ef60048ed6fc00afddf6bf420bdbcd21de5b96bf5d2fad66"),
    (("enumerate", "--family", "triangular", "--n", "5", "--json"), "", 0,
     "ea0bf803e5eed51d8c4d3cb450512aa0dbfdb16ec78365d2aa9c6da09bb003a6"),
    (("enumerate", "--family", "triangular", "--n", "4", "--json", "--out", OUT), "", 0,
     "bdc8247fc07cdd8c7002fd6954a05325060800f65706161fd31008e5d1684e88"),
    (("enumerate", "--family", "general", "--n", "3"), "", 0,
     "f4841c0970743c9826d782500df48e6b7e545b365dd7f802369b24e11490781d"),
    (("enumerate", "--family", "general", "--n", "3", "--json"), "", 0,
     "c50b4e364a401d59cd0781e3215849cac7c6dc1a2098148ed717671179caaf1b"),
    (("enumerate", "--family", "w", "--n", "4", "--jobs", "1"), "", 0,
     "c595b6e0fdebdbc65cdd6a8845e5b476837063147c16ad39f2cdf0dde2e949f7"),
    (("enumerate", "--family", "w", "--n", "4", "--json", "--no-witnesses"), "", 0,
     "6ebae49f75d88be47600465aec4fbeb19c35a11829ee3e089afe2eb028afae93"),
    (("search", "--n", "4", "--direction", "max", "--restarts", "6",
      "--max-steps", "20", "--seed", "3"), "", 0,
     "79d26a14191216d28d91a4d7d763e7080ceb3b32fb2093a9cfa0bf073dfa8300"),
    (("search", "--n", "4", "--direction", "max", "--restarts", "6",
      "--max-steps", "20", "--seed", "3", "--json"), "", 0,
     "3a93549a822e60e46b2af0807736a1e5a209571bc0384d63d4324aa60a9c092b"),
    (("search", "--n", "5", "--direction", "min", "--restarts", "4",
      "--seed", "11", "--out", OUT), "", 0,
     "dbc684404263af16135d67ad580430e1b67a7274756bc2d5e4690290d0da3581"),
    *SEARCH_AT_SCALE,
    (("verify", "--suite", "all", "--n", "6", *SEEDED_VERIFY), "", 0,
     "41a714ef33b16b2bad452fc19c2ca70250fee7a75290a3be3e409cbbef03739d"),
    (("verify", "--suite", "all", "--n", "6", *SEEDED_VERIFY, "--json"), "", 0,
     "2c5a3d578c0ae2c203088d8eae5af7002e1b8d3ce0e2b58f7b7319392cad8068"),
    (("verify", "--suite", "theorem", "--n", "5"), "", 0,
     "7b6b3429cfe606b223c3b953a30dbf2d8cffc67171e807d044623ec9907170dc"),
    (("verify", "--suite", "gsampling", "--n", "4", "--samples", "5",
      "--bound", "3", "--seed", "2", "--json"), "", 0,
     "1abce03124a30026ce5815aa922874f93a839fa06ed578c1bc962b24c83cf357"),
    (("verify", "--suite", "remark", "--n", "5", "--count", "7", "--seed", "4"), "", 0,
     "a1d5c6688b6af76c654c8de3bf752e8a4a1f5a5f89e03b1c33f660c57e708fda"),
    (("construct", "--n", "5", "--sum", "99"), "", 1,
     "0609591c33fd1a30c9e9e3c039f620961c3ec34ac9044489cb82558ab2d2dc8d"),
    (("invert",), "2\n1 1\n1 1\n", 1,
     "fd627b7f41fc047fa0e398bd5cf1b2756a1353041501bae49383ee910e81c245"),
    (("invert",), "2\n1 0\n", 3,
     "8d8d44b88b9e1569b03908109f8873d73b0dc000d62302f1e29a670a08792299"),
    (("invert", "--json"), "2\n1 1_0\n0 1\n", 3,
     "fdf0dbecc61d09c2a46050b5b402348baf185ff284cdcc2c18b69ececc58cfb6"),
    # Lower triangular input, int and rational (listed last so that the
    # ids of the invert cases above keep their suffixes).
    (("invert",), LOWER, 0,
     "4e0790618a0e918ea1fae1716911eddb4d90abfef7cf31fac99ffbba54211b0a"),
    (("invert", "--json"), LOWER, 0,
     "ae0f2532578fc2c056ec3ee87a42bb440059869ec7bb1e7061b86ff64dde060f"),
    (("invert",), LOWER_RATIONAL, 0,
     "5054a89aec8d3762af0e7d268ca7d5794bc03dde11d8ac57e0779fb4272ee043"),
    (("invert", "--json"), LOWER_RATIONAL, 0,
     "2b5dd7b539804e16a7e02fcf90b29d14ac4fb08c7749d025c31dc32bb78faa6d"),
]

# Commands that exit 2, run with corollary 3 made to fail at n = 7.
FAILING_CASES = [
    (("verify", "--suite", "corollaries", "--n", "12"), 2,
     "9b3173c5777e9ab3a43c3d9769f89e6b56e155c280fb005ba1369ef22aca995c"),
    (("verify", "--suite", "corollaries", "--n", "12", "--json"), 2,
     "f2ce6bd24279d10358120b899cf231a855c49a28457557408b922dcd95882800"),
]


def outcome(argv, stdin, out_path) -> tuple:
    """(exit code, sha256) of one command run through ``main``."""
    argv = [str(out_path) if a == OUT else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    blob = "\0".join((stdout.getvalue(), stderr.getvalue(), written))
    return code, hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, stdin, code, digest", CASES,
                         ids=[" ".join(c[0]) for c in CASES])
def test_output_pinned(tmp_path, argv, stdin, code, digest):
    assert outcome(argv, stdin, tmp_path / "out.txt") == (code, digest)


@pytest.mark.parametrize("argv, code, digest", FAILING_CASES,
                         ids=[" ".join(c[0]) for c in FAILING_CASES])
def test_failed_verification_output_pinned(tmp_path, argv, code, digest):
    with mock.patch.object(fibonacci, "corollary_failures",
                           lambda max_n: ([7], [])):
        assert outcome(argv, "", tmp_path / "out.txt") == (code, digest)
