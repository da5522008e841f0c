"""The from-scratch rule: no hash that instantiates an oracle uses ``hashlib``.

Every module of ``repro.hashes`` is parsed and its imports are checked,
so the kernels cannot be swapped for CPython's C implementations
(``hashlib`` or the ``_hashlib``, ``_sha*``, ``_blake2`` and ``_md5``
modules behind it) without this test failing.  Elsewhere the library
may use ``hashlib`` for bookkeeping (trial seeds, trace query keys);
those digests never answer an oracle query.
"""

import ast
import re
from pathlib import Path

import repro.hashes

_FORBIDDEN = re.compile(r"hashlib|_hashlib|_sha\w*|_blake2|_md5")


def forbidden_imports(source: str) -> list[str]:
    """The modules imported by ``source`` whose top-level name is forbidden."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        found += [n for n in names if _FORBIDDEN.fullmatch(n.split(".")[0])]
    return found


def test_hash_modules_import_no_hashlib():
    modules = sorted(Path(repro.hashes.__file__).parent.glob("*.py"))
    assert {"sha3.py", "sha256.py", "instantiate.py"} <= {m.name for m in modules}
    offending = {m.name: forbidden_imports(m.read_text()) for m in modules}
    assert {k: v for k, v in offending.items() if v} == {}


def test_checker_flags_every_forbidden_form():
    source = "\n".join(
        [
            "import hashlib",
            "import os, _hashlib",
            "from hashlib import sha3_256",
            "from _sha256 import sha256",
            "import _sha3",
            "from _blake2 import blake2b",
            "import _md5 as m",
            "def f():",
            "    import hashlib.x",
        ]
    )
    assert forbidden_imports(source) == [
        "hashlib",
        "_hashlib",
        "hashlib",
        "_sha256",
        "_sha3",
        "_blake2",
        "_md5",
        "hashlib.x",
    ]


def test_checker_passes_other_imports():
    source = "import struct\nfrom . import sha3\nfrom repro.bits import Bits\n"
    assert forbidden_imports(source) == []
