"""Every top-level function, class and method of the package has a use in
the package.

A symbol that only tests reach is surface without a user: it has to be
named from some module of ``src/gradedfibers`` (other than from inside its
own definition) or be exported through ``gradedfibers.__all__``.  A method
that is not a dunder has to be named as an attribute somewhere in the
package outside its own body.  The symbols in ``KEPT`` are exempt on
purpose.
"""

import ast
from pathlib import Path

import gradedfibers

SRC = Path(__file__).resolve().parent.parent / "src" / "gradedfibers"

KEPT = {
    # reference oracles: tests compare the engine against them
    "groebner.ideal_contains",
    "groebner.ideal_equal",
    "groebner.presentation_vecdim",
    "ratmap.hilbert_samuel_multiplicity",
    "ratmap.image_ideal",
    "ratmap.preimage_count",
    "strands.presentation_strand_dim",
    "strands.scalar_rank",
    # the j-multiplicity of one ideal; perfbench/layertrace.py traces it by name
    "ratmap.j_multiplicity",
    # tests' reference for the rank-drop loci; perfbench traces it by name
    "strands.StrandMatrix.minors_ideal",
    # d_(i-1) d_i = 0 on a complex: tests check every resolution with it
    "resolution.Complex.check",
    # a monomial from its exponent tuple: tests build lead modules with it
    "rings.Ring.monomial",
    # the canonical text of a parsed script; perfbench/workloads.py seeds
    # the benchmark's scripts through it
    "script.SessionScript.pretty",
}


def _definitions(trees):
    return {(mod, node.name): node for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _reached(trees, defs):
    """(module, name) pairs named somewhere in the package, self-references aside."""
    reached = set()
    for mod, tree in trees.items():
        modules = {}  # local name -> package module it stands for
        symbols = {}  # local name -> (module, name) it was imported as
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        symbols[local] = (node.module, alias.name)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    key = symbols.get(node.id, (mod, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    key = (modules[node.value.id], node.attr)
                else:
                    continue
                if key in defs and defs[key] is not top:
                    reached.add(key)
    return reached


def test_no_symbol_is_reached_only_from_tests():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    defs = _definitions(trees)
    reached = _reached(trees, defs)
    exported = set(gradedfibers.__all__)
    unused = sorted("%s.%s" % key for key in defs
                    if key not in reached and key[1] not in exported
                    and "%s.%s" % key not in KEPT)
    assert unused == []


def test_no_method_is_reached_only_from_tests():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    attributes = [node for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    unused = []
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("__"):
                    continue
                own = {id(node) for node in ast.walk(method)}
                if not any(node.attr == method.name and id(node) not in own
                           for node in attributes):
                    unused.append("%s.%s.%s" % (mod, cls.name, method.name))
    assert sorted(set(unused) - KEPT) == []


def _places_naming(tree, name):
    """Dotted scopes (def and class names) whose own code names `name`."""
    places = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if name in (getattr(child, "id", None), getattr(child, "attr", None)) \
                    or isinstance(child, ast.alias) and child.name == name:
                places.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return places


def test_one_place_resolves_a_module():
    # a presentation owns its resolution: every reader asks it for the
    # complex, and nothing else calls the resolution routine
    places = {"%s.%s" % (p.stem, scope) for p in sorted(SRC.glob("*.py"))
              for scope in _places_naming(ast.parse(p.read_text(encoding="utf-8")),
                                          "free_resolution")}
    assert places == {"modules.Presentation.resolution"}
    # the kernel loop runs only inside the resolution routine, or as the
    # raw complex it leaves unbuilt until read
    walks = {"%s.%s" % (p.stem, scope) for p in sorted(SRC.glob("*.py"))
             for scope in _places_naming(ast.parse(p.read_text(encoding="utf-8")), "_walk")}
    assert walks == {"resolution.free_resolution", "resolution._walk"}
