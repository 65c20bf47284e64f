"""Assertions for every convention stated in CONVENTIONS.md.

These are deliberately small and explicit: each test pins one sign or
side choice that the rest of the suite silently relies on.
"""

import ast
import os
import random
import re
import subprocess
import sys
import types
import typing
from collections import Counter
from pathlib import Path

import pytest

from buildinglab.building import (
    GroupContext,
    boundary_simplex,
    cartan_decomposition,
    mat_agreement,
    opposite,
    parabolic_membership,
    type_of_dims,
)
from buildinglab.dynamics import agreement_gate, classify
from buildinglab import building, cli, dynamics
from buildinglab import chabauty as ch

N = 32
_REPO = Path(__file__).resolve().parents[1]


def test_left_action_composition():
    ctx = GroupContext(3, 5)
    rng = random.Random(1)
    s = ctx.c_plus.face((1,))
    for _ in range(10):
        g = ctx.random_element(rng)
        h = ctx.random_element(rng)
        assert s.translate(g * h).same(s.translate(h).translate(g),
                                       depth=N - 8)


def test_chamber_and_face_types():
    assert type_of_dims(3, (1, 2)) == frozenset()
    assert type_of_dims(3, (1,)) == frozenset({1})
    assert type_of_dims(3, (2,)) == frozenset({0})
    assert type_of_dims(4, (2,)) == frozenset({0, 2})


def test_attracting_side_of_diagonal():
    ctx = GroupContext(2, 3)
    cert = classify(ctx.diag((-1, 1)))
    e1 = boundary_simplex(ctx.identity, (1,))
    e2 = boundary_simplex(ctx.reversal, (1,))
    assert cert.sigma_plus.same(e1, depth=8)
    assert cert.sigma_minus.same(e2, depth=8)
    # stabilizer characterization: gamma^-n g gamma^n stays bounded exactly
    # for elements fixing the attracting line
    gamma = cert.element
    gi = gamma.inv()
    upper = ctx.mat([[1, 1], [0, 1]])
    lower = ctx.mat([[1, 0], [1, 1]])
    x = upper
    y = lower
    for _ in range(6):
        x = gi * x * gamma
        y = gi * y * gamma
    assert x.min_val_floor() >= 0
    assert y.min_val_floor() <= -6
    assert parabolic_membership(upper, cert.sigma_plus)
    assert not parabolic_membership(lower, cert.sigma_plus)


def test_certificate_exponents_descend_and_type_split():
    ctx = GroupContext(3, 3)
    cert = classify(ctx.diag((1, 1, -2)))
    assert cert.exps == (1, 1, -2)
    assert cert.wall_type == frozenset({0})
    assert type_of_dims(3, cert.sigma_minus.dims) == frozenset({0})
    assert type_of_dims(3, cert.sigma_plus.dims) == frozenset({1})


def test_upper_unipotents_contract_and_sweep():
    ctx = GroupContext(2, 5)
    gamma = ctx.diag((-1, 1))
    gi = gamma.inv()
    t = ctx.s(7)
    u = ctx.mat([[ctx.one, t], [ctx.zero, ctx.one]])
    x = u
    for _ in range(5):
        x = gi * x * gamma
    assert mat_agreement(x, ctx.identity) >= 10
    cert = classify(gamma)
    moved = cert.sigma_minus.translate(u)
    assert moved.same(ch.line_simplex(ctx, t), depth=N - 6)
    assert opposite(cert.sigma_plus, moved)


def test_aimed_rotation_limit_is_upper():
    ctx = GroupContext(2, 5)
    t = ctx.s(3)
    n = 2
    h = ch.rotation_element(ctx, t.shift(2 * n))
    a = ctx.diag((-n, n))
    g = a * h * a.inv()
    assert (g[0, 1] - t).is_zeroish()
    assert g[1, 0].val_floor() >= 4 * n
    # the transposed orientation would put the parameter below the diagonal
    assert not (g[1, 0] - t).is_zeroish()


def test_canonical_square_root_branch():
    ctx = GroupContext(2, 5)
    r = (ctx.one - ctx.s(1).shift(2) * ctx.s(1).shift(2)).sqrt()
    # canonical branch has residue 1 (the smaller of the two roots mod 5)
    assert r.v == 0 and r.unit % 5 == 1


def test_gate_depth_reads_closeness():
    ctx = GroupContext(2, 3)
    e1 = boundary_simplex(ctx.identity, (1,))
    near = ch.line_simplex(ctx, ctx.s(1).shift(6)).translate(ctx.perm((1, 0)))
    far = ch.line_simplex(ctx, ctx.s(1).shift(1)).translate(ctx.perm((1, 0)))
    g_near = agreement_gate((0, 0), e1, near)
    g_far = agreement_gate((0, 0), e1, far)
    assert g_near.radius > g_far.radius


def test_relative_residual_counts_algorithm_digits():
    ctx = GroupContext(2, 3)
    g = ctx.diag((-2, 2))
    k1, exps, k2 = cartan_decomposition(g)
    r = mat_agreement(k1 * ctx.diag(exps) * k2, g)
    assert r - g.min_val_floor() >= N - 2


def _unused_imports(source: str):
    """Names a module imports but never reads and does not export."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used - exported)


def test_no_unused_imports():
    paths = [path for pattern in ("src/buildinglab/*.py", "tests/*.py", "scripts/*.py")
             for path in sorted(_REPO.glob(pattern))]
    found = {str(path.relative_to(_REPO)): _unused_imports(path.read_text())
             for path in paths}
    assert {name: names for name, names in found.items() if names} == {}


def test_no_global_statement_in_the_package():
    """No function of the package rebinds a module global, so no answer
    is kept from one call to the next and values can be shared freely
    across threads, as padic.py promises."""
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(_REPO.glob("src/buildinglab/*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []


def test_every_elimination_step_goes_through_the_skip_rule():
    """In the package, ``_sub_row`` and ``_sub_col`` are only handed to
    ``building._clear`` as its step, so no loop makes a row or column step
    with a skip test of its own and the skip rule is written once."""
    found = []
    for path in sorted(_REPO.glob("src/buildinglab/*.py")):
        tree = ast.parse(path.read_text())
        handed = {id(node.args[0]) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_clear"}
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in ("_sub_row", "_sub_col")
                  and id(node) not in handed]
    assert found == []


# -- reach guards --------------------------------------------------------------
# Both match by name: `x.agreement` reaches every method called `agreement`,
# and `f(a, depth=1)` passes `depth` to every callable called `f`.  A method
# is reached only as an attribute, `x.name`; a bare name of the same spelling,
# such as a local variable, is not a read of it.  A dead method that shares
# its name with a live one is still hidden from them, as Mat.agreement,
# PadicScalar.agreement, AffineWeylCoset.is_translation and .monomial were:
# those were found and deleted by hand.

# public names that nothing in src/, scripts/ or the acceptance suite reaches
_UNREACHED = {
    "project_to_residue": "ROADMAP item 2 gives it a caller",
    "agreement_gate": "CONVENTIONS.md defines the gate by it",
}


def _trees(*patterns):
    return [ast.parse(path.read_text())
            for pattern in patterns for path in sorted(_REPO.glob(pattern))]


def _public_defs():
    """(name, node, is a method) of every public function, class and method
    of the package, the test oracles in oracles.py aside."""
    for path in sorted(_REPO.glob("src/buildinglab/*.py")):
        if path.name == "oracles.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                yield node.name, node, False
                methods = node.body if isinstance(node, ast.ClassDef) else ()
                yield from ((sub.name, sub, True) for sub in methods
                            if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_")


_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _names(tree, kinds=tuple(_FIELDS)):
    """Names read in a tree as one of `kinds`: an ast.Name, an ast.Attribute
    or an import."""
    return [getattr(node, _FIELDS[type(node)]).rpartition(".")[2]
            for node in ast.walk(tree) if type(node) in kinds]


def test_every_public_name_is_reached():
    trees = _trees("src/**/*.py", "scripts/*.py", "tests/test_acceptance.py")
    kinds = {"any": tuple(_FIELDS), "attribute": (ast.Attribute,)}
    refs = {k: Counter(name for tree in trees for name in _names(tree, kinds[k]))
            for k in kinds}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for k in kinds:  # its own body
                refs[k][node.name] -= _names(node, kinds[k]).count(node.name)
    unreached = {name for name, _, method in _public_defs()
                 if refs["attribute" if method else "any"][name] <= 0}
    # also fails when a listed name gains a caller or is deleted
    assert unreached == set(_UNREACHED)


def _passed(call, param, pos):
    """Does the call pass param by keyword, by position or through * or **?"""
    return any(k.arg in (param, None) for k in call.keywords) or (
        pos is not None and (len(call.args) > pos or any(
            isinstance(x, ast.Starred) for x in call.args[:pos + 1])))


def test_every_defaulted_parameter_is_passed():
    calls = {}
    for node in (node for tree in _trees("src/**/*.py", "scripts/*.py", "tests/*.py")
                 for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    never = []
    for name, fn, method in _public_defs():
        if isinstance(fn, ast.ClassDef):  # called through its __init__
            fn = next((f for f in fn.body if getattr(f, "name", "") == "__init__"), None)
            method = True
            if fn is None:
                continue
        a = fn.args
        names = [x.arg for x in a.posonlyargs + a.args][method:]
        first = len(names) - len(a.defaults)
        defaulted = [(x, i) for i, x in enumerate(names) if i >= first] + [
            (k.arg, None) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        never += ["%s(%s)" % (name, x) for x, pos in defaulted
                  if not any(_passed(c, x, pos) for c in calls.get(name, ()))]
    assert never == []


def test_frozen_references_live_in_the_reference_table():
    """A frozen reference, a function named ``_ref_*``, ``_chained_*`` or
    ``chained_*``, is defined in tests/reference.py and in no other test
    module, and each one there is named by its table or imported by a test."""
    is_reference = re.compile(r"_ref_|_?chained_").match
    table, tests = _trees("tests/reference.py")[0], _trees("tests/test_*.py")
    assert [node.name for tree in tests for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and is_reference(node.name)] == []
    named = {name for node in table.body if isinstance(node, ast.Assign)
             for name in _names(node)}
    imported = {name for tree in tests for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "reference"
                for name in _names(node)}
    defined = {node.name for node in table.body if isinstance(node, ast.FunctionDef)}
    assert {name for name in defined if is_reference(name)} - named - imported == set()


def test_cli_imports_no_heavy_stdlib_modules():
    """Records derive from the package's slotted base, the timestamp comes
    from time, the report hash from CPython's built-in SHA-256 and Newton
    polygons are compared in integers, so the program's start-up compiles
    and runs none of these modules.  The interpreter runs without `site`
    (-S), so no start-up hook of the host loads or hides one of them."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "datetime", "hashlib",
             "_hashlib", "fractions", "decimal")
    code = ("import sys; before = set(sys.modules); import buildinglab.cli; "
            "print(' '.join(m for m in %r if m in set(sys.modules) - before))"
            % (heavy,))
    env = dict(os.environ, PYTHONPATH=str(_REPO / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == []


# -- records -------------------------------------------------------------------

_RECORDS = [obj for mod in (building, dynamics, ch, cli) for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__
            and hasattr(obj, "_field_defaults")]


def _twin(record):
    """A typing.NamedTuple with the record's name, fields and defaults."""
    def body(ns):
        ns["__module__"] = __name__
        ns["__annotations__"] = dict.fromkeys(record._fields, typing.Any)
        ns.update(record._field_defaults)
    return types.new_class(record.__name__, (typing.NamedTuple,), exec_body=body)


@pytest.mark.parametrize("record", _RECORDS, ids=lambda r: r.__name__)
def test_record_behaves_as_its_named_tuple_twin(record):
    twin = _twin(record)
    fields = record._fields
    ones = [("one", i) for i in range(len(fields))]
    twos = [("two", i) for i in range(len(fields))]
    required = len(fields) - len(record._field_defaults)
    for args, kwargs in ((ones, {}), ((), dict(zip(fields, ones))),
                         (ones[:required], {}), (ones[:1], dict(zip(fields[1:], twos[1:])))):
        rec = record(*args, **kwargs)
        assert type(rec) is record
        assert repr(rec) == repr(twin(*args, **kwargs))
    a, b, c = record(*ones), record(*ones), record(*twos)
    assert (a == b, a == c, a != b, a != c) == (True, False, False, True)
    for name, value in zip(fields, twos):
        changed = a._replace(**{name: value})
        assert type(changed) is record
        assert repr(changed) == repr(twin(*ones)._replace(**{name: value}))
        assert changed == record(*(value if f == name else v for f, v in zip(fields, ones)))
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert a == b and repr(a) == repr(twin(*ones))


def test_no_record_or_annotation_costs_start_up():
    """No class of the package derives from NamedTuple, which builds a
    tuple class and compiles a constructor per record, and every module
    but __init__.py defers its annotations (PEP 563) in its first
    statement after the docstring, so no annotation is evaluated at
    import.  The records found here are the ones the twin test checks."""
    bases, eager = [], []
    for path in sorted(_REPO.glob("src/buildinglab/*.py")):
        tree = ast.parse(path.read_text())
        bases += [(node.name, {name for base in node.bases for name in _names(base)})
                  for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        first = tree.body[ast.get_docstring(tree) is not None]
        if path.name != "__init__.py" and not (
                isinstance(first, ast.ImportFrom) and first.module == "__future__"
                and [a.name for a in first.names] == ["annotations"]):
            eager.append(path.name)
    assert [name for name, of in bases if "NamedTuple" in of] == []
    assert eager == []
    records = [name for name, of in bases if "_Record" in of]
    assert sorted(records) == sorted(r.__name__ for r in _RECORDS) and len(records) == 16
