"""Every public function and class in the package, and every public method
and property of its classes, has a caller outside the tests.

Code that only tests import belongs in the tests, as an oracle next to the
assertions that use it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_FILES = sorted((ROOT / "src" / "temporal_augmenter").glob("*.py"))
CALLER_FILES = PACKAGE_FILES + sorted((ROOT / "perfbench").glob("*.py"))


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree) -> set:
    """Module-level public names, and ``Class.member`` for the public
    methods and properties of module-level classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{member.name}" for member in node.body
                             if isinstance(member, DEFINITIONS)
                             and not member.name.startswith("_"))
    return names


def used_names(tree, strings: bool = True) -> set:
    """Names a module refers to: bare names, attributes (except on ``np``),
    imported names and, unless ``strings`` is false, the dotted parts of
    string constants, which is how the benchmark's tracer names the
    functions it wraps."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id == "np"):
                used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                used.update(alias.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def unused_definitions(trees, strings: bool) -> set:
    """``module.name`` for each public definition that no caller file names."""
    used = set().union(*(used_names(tree, strings) for tree in trees.values()))
    return {f"{path.stem}.{name}" for path in PACKAGE_FILES
            for name in public_definitions(trees[path])
            if name.rsplit(".", 1)[-1] not in used}


def parsed_callers() -> dict:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLER_FILES}


def test_every_public_definition_has_a_non_test_caller():
    assert PACKAGE_FILES and len(CALLER_FILES) > len(PACKAGE_FILES)
    unused = sorted(unused_definitions(parsed_callers(), strings=True))
    assert unused == [], f"used only by tests (move them into tests/): {unused}"


def test_only_the_textbook_front_end_is_kept_by_a_span_name_alone():
    """The tracer's span names count as callers above, so a function that no
    code calls can stay while perfbench names it.  Only the three textbook
    front-end layers may: the model's tests hold its front end to them.
    Another name here is dead code that a span name hides."""
    trees = parsed_callers()
    named_only = unused_definitions(trees, strings=False) - unused_definitions(trees, strings=True)
    assert named_only == {"layers.conv1d_forward", "layers.maxpool1d_forward",
                          "layers.maxpool1d_backward"}, (
        f"kept only by a string constant: {sorted(named_only)}; see ROADMAP item 16, "
        "step 1, which gives the tracer the front end's own names")
