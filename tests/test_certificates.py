"""Certificate guard: every certificate in src/fcunits is named by a test.

Each `certify(cond, message)` call in src/fcunits passes when some string
literal of at least three words in tests/, docstrings excepted, read as a
regular expression, is found in its message.  A docstring is prose, and
read as a pattern its |H| or |T| would match any message with an H or T.  An f-string message is read with each
replacement field as a placeholder that no word matches, so a test must
name the message's fixed words.  `tools/mutation_sweep.py` shows that
some test fails when a certificate is made a no-op; this guard keeps a
message that no test matches from being added in the first place.
"""

import ast
import functools
import pathlib
import re

import fcunits

SRC = pathlib.Path(fcunits.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent
PLACEHOLDER = "\0"


def _message(node):
    """The text of a message argument, or None when it is no literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant)
                       else PLACEHOLDER for part in node.values)
    return None


def certificate_messages():
    """(site, message) for every certify call in src/fcunits."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "certify"):
                yield f"{path.name}:{node.lineno}", _message(node.args[1])


def _docstrings(tree):
    """The ids of the docstring nodes of a module and its definitions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None}


@functools.cache
def _patterns():
    """The compiled string literals of three or more words in tests/,
    docstrings and this file's own excepted."""
    out = set()
    for path in sorted(TESTS.glob("*.py")):
        if path.name == pathlib.Path(__file__).name:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and len(node.value.split()) >= 3):
                try:
                    out.add(re.compile(node.value))
                except re.error:
                    pass
    return out


def unnamed_certificates():
    return [site for site, message in certificate_messages()
            if message is None
            or not any(p.search(message) for p in _patterns())]


def test_every_certificate_message_is_named_by_a_test():
    assert len(list(certificate_messages())) >= 25
    assert unnamed_certificates() == []

