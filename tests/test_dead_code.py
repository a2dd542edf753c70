"""Guard against dead code in ``src/repro``.

Every ``def`` whose name is unique in ``src/repro`` must be referenced
somewhere outside its own body: by ``src/repro`` code, by ``benchmarks/``
code, or by name in ``benchmarks/perf/spans.py``'s dotted span targets and
``getattr`` strings.  A method that only tests call is a second copy of a
pipeline step that no simulation runs; delete it, or call it.

The check is by name, so a method whose name another ``def`` shares is
not judged here.
"""

import ast
import collections
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
BENCHMARKS = os.path.join(ROOT, "benchmarks")
SPANS = os.path.join(BENCHMARKS, "perf", "spans.py")

#: API kept without a caller in the package, with the reason.
KEEP = {
    # Emulator-equivalence oracle: tests compare the drained core's
    # architectural registers against the reference emulator.
    "architectural_registers",
}


def _python_files(top):
    for dirpath, _dirnames, filenames in os.walk(top):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _parse(path):
    with open(path) as handle:
        return ast.parse(handle.read(), path)


def _definitions():
    """name -> [(path, first line, last line)] for every def in the package."""
    defs = collections.defaultdict(list)
    for path in _python_files(SRC):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name].append((path, node.lineno, node.end_lineno))
    return defs


def _references():
    """name -> [(path, line)] of every identifier use in code."""
    refs = collections.defaultdict(list)
    for top in (SRC, BENCHMARKS):
        for path in _python_files(top):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    refs[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    refs[node.attr].append((path, node.lineno))
    # Span targets name callables as dotted strings ("RFPEngine.step") and
    # look optional ones up with getattr.
    for node in ast.walk(_parse(SPANS)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                refs[word].append((SPANS, node.lineno))
    return refs


def unreferenced_definitions():
    defs = _definitions()
    refs = _references()
    dead = []
    for name, sites in sorted(defs.items()):
        if len(sites) != 1 or name in KEEP:
            continue
        if name.startswith("__") and name.endswith("__"):
            continue
        path, first, last = sites[0]
        outside = [
            (ref_path, line) for ref_path, line in refs.get(name, ())
            if not (ref_path == path and first <= line <= last)
        ]
        if not outside:
            dead.append("%s:%d %s" % (os.path.relpath(path, ROOT), first, name))
    return dead


def test_every_unique_def_has_a_caller():
    assert unreferenced_definitions() == []


def test_keep_list_names_live_definitions():
    """A keep-list entry whose definition is gone must leave the list too."""
    defs = _definitions()
    assert sorted(name for name in KEEP if name not in defs) == []
