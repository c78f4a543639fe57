"""Golden outputs of the frontend, and the shared prelude parse.

``tests/data/frontend_golden.json`` pins sha256 digests of what the
frontend produces for every bundled release: the token stream as
``(kind, value, line, column)``, the canonical ``ClassFile.to_dict()``
JSON of each compiled release, and the transformer class files of each
of the 22 ``prepare_update(..., minimize=True)`` runs. A change to the
lexer, parser, type checker or code generator that alters any of them
fails here, naming the release.

The prelude is parsed once per process and shared by every compile, so
the second half checks that nothing compiled or prepared mutates it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.registry import APPS, update_pairs
from repro.compiler.compile import compile_prelude, compile_source
from repro.dsu.upt import prepare_update
from repro.lang.errors import SourceLocation
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.prelude import PRELUDE_SOURCE, parse_prelude
from repro.lang.types import Type

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "frontend_golden.json").read_text()
)

RELEASES = [
    (app, version) for app, info in APPS.items() for version in info.versions
]
UPDATES = [(app, a, b) for app in APPS for a, b in update_pairs(app)]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _token_digest(source: str, filename: str) -> str:
    return _digest([
        (t.kind.name, t.value, t.location.line, t.location.column)
        for t in tokenize(source, filename)
    ])


def _classfiles_digest(classfiles) -> str:
    return _digest({name: cf.to_dict() for name, cf in classfiles.items()})


@pytest.fixture(scope="module")
def compiled():
    """Every bundled release, compiled once for this module."""
    return {
        (app, version): compile_source(
            APPS[app].versions[version], f"<{app} {version}>", version=version
        )
        for app, version in RELEASES
    }


@pytest.fixture(scope="module")
def prepared(compiled):
    """All 22 updates, prepared once for this module."""
    result = {}
    for app, a, b in UPDATES:
        overrides = APPS[app].transformer_overrides.get((a, b), {})
        result[(app, a, b)] = prepare_update(
            compiled[(app, a)], compiled[(app, b)], a, b,
            transformer_overrides=overrides or None, minimize=True,
        )
    return result


def test_golden_covers_every_release_and_update():
    assert len(RELEASES) == 25 and len(UPDATES) == 22
    assert set(GOLDEN["tokens"]) == {"prelude"} | {f"{a} {v}" for a, v in RELEASES}
    assert set(GOLDEN["classfiles"]) == {f"{a} {v}" for a, v in RELEASES}
    assert set(GOLDEN["transformers"]) == {f"{app} {a}->{b}" for app, a, b in UPDATES}


def test_prelude_token_stream():
    assert _token_digest(PRELUDE_SOURCE, "<prelude>") == GOLDEN["tokens"]["prelude"]


@pytest.mark.parametrize("app,version", RELEASES)
def test_release_token_stream(app, version):
    source = APPS[app].versions[version]
    digest = _token_digest(source, f"<{app} {version}>")
    assert digest == GOLDEN["tokens"][f"{app} {version}"]


@pytest.mark.parametrize("app,version", RELEASES)
def test_release_classfiles(compiled, app, version):
    digest = _classfiles_digest(compiled[(app, version)])
    assert digest == GOLDEN["classfiles"][f"{app} {version}"]


@pytest.mark.parametrize("app,a,b", UPDATES)
def test_update_transformer_classfiles(prepared, app, a, b):
    digest = _classfiles_digest(prepared[(app, a, b)].transformer_classfiles)
    assert digest == GOLDEN["transformers"][f"{app} {a}->{b}"]


# ---------------------------------------------------------------------------
# the prelude parse is shared


def _dump(node):
    """Every attribute of an AST, recursively, as plain data."""
    if isinstance(node, (list, tuple)):
        return [_dump(item) for item in node]
    if isinstance(node, (SourceLocation, Type)) or node is None:
        return repr(node)
    if isinstance(node, (str, int, bool)):
        return node
    return [type(node).__name__,
            {key: _dump(value) for key, value in sorted(vars(node).items())}]


class TestPreludeParsedOnce:
    def test_every_call_returns_the_same_program(self):
        assert parse_prelude() is parse_prelude()

    def test_compiling_and_preparing_leave_the_prelude_unchanged(
        self, compiled, prepared
    ):
        """After every release is compiled, all 22 updates are prepared
        and the prelude itself is compiled, the shared program still
        equals a fresh parse of the prelude source."""
        shared = parse_prelude()
        compile_prelude()
        assert len(compiled) == 25 and len(prepared) == 22
        assert parse_prelude() is shared
        assert _dump(shared) == _dump(parse(PRELUDE_SOURCE, "<prelude>"))
