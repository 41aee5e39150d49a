"""Byte-exact CLI outputs, pinned by sha256.

Each case runs one command in-process and hashes its stdout or the file it
writes.  A refactor keeps every digest; an intended output change updates
its digest here.  `python tests/test_outputs.py` prints the digests, so they
can be compared across interpreters without pytest.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from systolic.cli import main
from systolic.suites import SUITE_NAMES

PARALLELOGRAM = ("--kind", "parallelogram")   # height 8, width 2: corners 0 and 26
DISC = ("--kind", "disc", "--seed", "7", "--rings", "3")
RECTANGLE = ("--kind", "rectangle", "--height", "10", "--width", "5")


def _run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def _gen(workdir: str, name: str, *kind: str) -> str:
    path = os.path.join(workdir, name)
    _run("gen", *kind, "--out", path)
    return path


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _verify(suite):
    return lambda workdir: _run("verify", "--suite", suite, "--seed", "1", "--count", "8").encode()


def _gen_file(kind):
    return lambda workdir: _read(_gen(workdir, "g.cx", "--kind", kind))


def _stdout(command, complex_args, *argv):
    def case(workdir):
        cx = _gen(workdir, "in.cx", *complex_args)
        return _run(command, "--complex", cx, *argv).encode()
    return case


def _egeo(complex_args, src, dst, part):
    """egeo's stdout (with the SVG path masked) or the SVG it writes."""
    def case(workdir):
        cx = _gen(workdir, "in.cx", *complex_args)
        svg = os.path.join(workdir, "egeo.svg")
        out = _run("egeo", "--complex", cx, "--from", src, "--to", dst, "--svg", svg)
        return out.replace(svg, "OUT.svg").encode() if part == "stdout" else _read(svg)
    return case


CASES = {
    **{f"verify {suite}": _verify(suite) for suite in SUITE_NAMES},
    **{f"gen {kind}": _gen_file(kind) for kind in ("parallelogram", "rectangle", "disc")},
    **{f"egeo {name} {part}": _egeo(args, src, dst, part)
       for name, args, src, dst in (("parallelogram", PARALLELOGRAM, "0", "26"),
                                    ("disc", DISC, "15", "63"))
       for part in ("stdout", "svg")},
    "dgeo parallelogram": _stdout("dgeo", PARALLELOGRAM, "--from", "0", "--to", "26"),
    "dgeo disc": _stdout("dgeo", DISC, "--from", "15", "--to", "63"),
    "good parallelogram": _stdout("good", PARALLELOGRAM, "--from", "0", "--to", "26"),
    "good disc": _stdout("good", DISC, "--from", "15", "--to", "63"),
    "atlas parallelogram": _stdout("atlas", PARALLELOGRAM, "--from", "0", "--radius", "3"),
    "atlas disc": _stdout("atlas", DISC, "--from", "15", "--radius", "3"),
    # two classes: the levels with 2i > D split the rays
    "atlas rectangle split": _stdout("atlas", RECTANGLE, "--from", "27", "--radius", "4",
                                     "--D", "1"),
}

EXPECTED = {
    'verify gauss-bonnet': '523ae0c1139e7dc161d7fef01b62ce52cf8b591567a964eb215251bd8d4f9a22',
    'verify good': '9e7af3ea2baccdb3b1bb73f8686bc3d2622f23b7b0c623079c8446fa5812949c',
    'verify layers': 'a2433ee1a476f1c00e4c6626e5b0b9b7a879d6bd7e389e160533546c64e70891',
    'verify prop99': 'a2c2761f9e68cbbd3b010a3b9646fcb3d5ccd8207b769ee1c58e6b8845e92ac3',
    'verify properties': 'c6e7806258b4e0607d7cf1b61a2eab4ff98c4c5ff7a00563aa5eca5796c83362',
    'verify thm8.1': 'dab3a462e80bd3efc8de19ff40fc4a2699548c3f5117d2ca4b1811342cb1f1c5',
    'verify thmB': 'ac432fedb0b693f9a9e650d75733c9b9921c45efb32891980051fb06620607d9',
    'verify thmC': 'a7cc8499d8d670c9d26d2cf5adacb06834a6866cb30a18ed7305568b823b4145',
    'gen parallelogram': 'f64e069b47a306e0855f436ee38d96dbbe8ed68e0b293119d5af3314d820bb7a',
    'gen rectangle': '42562c008c286c04c6222242a8f04b4a62686274eb3e4d286845a70e5cbfad18',
    'gen disc': 'ffa46f5edf3f35c8c146d9acdc7b87d46ac7169a96b188c130508ab30042b3d3',
    'egeo parallelogram stdout': '2ed83c8cd034fedc54b181c4eb596d895b89c9d8f867eeb98500a2355741f341',
    'egeo parallelogram svg': '7fcb4f1fc2800667463175ea8b4cd93508acc91917179b574349a4cc7f5ab8ba',
    'egeo disc stdout': '51f8f37b57b713bac166d27d10f888f70be2a3aaec8a31df3acedeb8e83442ac',
    'egeo disc svg': 'f37afc0d544c6a82d62d7c03ceb3c138cc5f5814ae1ae1ecc547ec1b1625f951',
    'dgeo parallelogram': '184695e78124455d5d88136c122ef79698ae5eed8b8c1cdc03cf4563a5fb9f03',
    'dgeo disc': 'b19a83d5e24315b059123e31105944d36d2c8c1c7ecd09a755d005c19b514a61',
    'good parallelogram': '666b1e058aa34ee649f6fe8162fd2653b99b1e797b384f6268f730db6f702bce',
    'good disc': '84c83b3ab75a441eb08b01cc71af9c2c11f48fbb3aa306b8b50fea1c8a8d2773',
    'atlas parallelogram': '03c2de320a8827f71b53af71eb173d8be5bddcaf33d90657360e3612a9da2db6',
    'atlas disc': 'f489d9ea12dac81a26dda4fdfbe53b1ca9c8b916e10bad970b066dce55e7db23',
    'atlas rectangle split': 'd859cbbf34fa0118f34b1ad32c1b895ef3392eceef4c2abcc585b6e8da08ce25',
}


def digest(case: str) -> str:
    with tempfile.TemporaryDirectory() as workdir:
        return hashlib.sha256(CASES[case](workdir)).hexdigest()


def test_every_case_is_pinned():
    assert sorted(EXPECTED) == sorted(CASES)


def test_outputs_match_pinned_digests():
    actual = {case: digest(case) for case in CASES}
    assert {c: d for c, d in actual.items() if d != EXPECTED.get(c)} == {}


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {digest(case)!r},")
