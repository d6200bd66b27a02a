"""The library's value types keep frozen-dataclass semantics without
`dataclasses`, and `import gform_lab` loads only the library's objects.

Each class is compared with a frozen dataclass twin of the same name and
fields, which is what it was before: the repr text, the hash of the field
tuple, equality only within one class, the constructor's keywords and
defaults, and assignment raising AttributeError."""

import copy
import dataclasses
import inspect
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gform_lab.gforms import IsometryWitness, ProductLaw, standard_form
from gform_lab.groups import Character, FiniteAbelianGroup, GroupElement, group_tables
from gform_lab.number_fields import HomToG, build_field
from gform_lab.resolvends import FactorizationResult
from gform_lab.stickelberger import (
    DualLatticeElement,
    IntegralityCertificate,
    StickelbergerVector,
    integrality_certificate,
)

C3 = FiniteAbelianGroup((3,))
C33 = FiniteAbelianGroup((3, 3))


def _cases():
    """(class, dataclass fields as (name, default or MISSING), field values
    as stored)."""
    K = build_field(3, 7)
    form = standard_form(C3)
    witness = IsometryWitness.of(form, (1, 0, 0))
    cert = integrality_certificate(C33)
    none = dataclasses.MISSING
    return [
        (FiniteAbelianGroup, [("invariant_factors", ())], [(3, 9)]),
        (GroupElement, [("group", none), ("exponents", none)], [C3, (2,)]),
        (Character, [("group", none), ("exponents", none)], [C33, (1, 2)]),
        (DualLatticeElement, [("group", none), ("coeffs", none)], [C3, (1, 0, -2)]),
        (StickelbergerVector, [("group", none), ("coeffs", none)],
         [C3, (Fraction(1, 3), Fraction(0), Fraction(-2))]),
        (IntegralityCertificate, [("group", none), ("lattice", none), ("counterexample", none)],
         [C33, cert.lattice, DualLatticeElement(C33, cert.lattice[0])]),
        (HomToG, [("field", none), ("group", none), ("sigma_image", none)],
         [K, C3, C3.element((2,))]),
        (FactorizationResult, [("passed", none), ("ell", none), ("witness", none),
                               ("details", none)], [True, 7, C3.element((1,)), ((1,), (0, 3))]),
        (IsometryWitness, [("form", none), ("coords", none), ("orbit_matrix", none)],
         [form, witness.coords, witness.orbit_matrix]),
        (ProductLaw, [("witnesses", none), ("composite", none), ("element", none),
                      ("self_dual", none), ("holds", none)],
         [(witness, witness), K, None, True, False]),
    ]


def _twin(cls, fields):
    spec = [(n, object) if d is dataclasses.MISSING else (n, object, dataclasses.field(default=d))
            for n, d in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


@pytest.mark.parametrize("case", range(10))
def test_record_matches_its_frozen_dataclass(case):
    cls, fields, values = _cases()[case]
    names = [n for n, _ in fields]
    twin = _twin(cls, fields)
    obj, ref = cls(*values), twin(*values)
    assert cls._fields == tuple(names)
    assert [getattr(obj, n) for n in names] == values
    assert repr(obj) == repr(ref)
    assert hash(obj) == hash(ref) == hash(tuple(values))
    # keywords, defaults and positional order as the dataclass had them
    params = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert params == [(p.name, p.default) for p in inspect.signature(twin).parameters.values()]
    assert cls(**dict(zip(names, values))) == obj
    assert obj == cls(*values) and not obj != cls(*values)
    assert obj.__eq__(ref) is NotImplemented and obj != ref
    assert len({obj, cls(*values)}) == 1
    for name in names + ["other"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    assert not hasattr(obj, "__dict__")


def test_records_normalise_and_default_as_before():
    assert FiniteAbelianGroup() == FiniteAbelianGroup(()) == FiniteAbelianGroup([])
    assert repr(FiniteAbelianGroup()) == "FiniteAbelianGroup(invariant_factors=())"
    assert repr(C3.element((4,))) == (
        "GroupElement(group=FiniteAbelianGroup(invariant_factors=(3,)), exponents=(1,))")
    assert StickelbergerVector(C3, (1, 0, 2)).coeffs == (Fraction(1), Fraction(0), Fraction(2))
    assert DualLatticeElement(C3, [Fraction(2), 0, 1]).coeffs == (2, 0, 1)
    # same exponents, different classes: never equal, and the hashes agree
    for G, e in ((C3, (1,)), (C33, (0, 2)), (FiniteAbelianGroup(), ())):
        assert Character(G, e) != GroupElement(G, e)
        assert hash(Character(G, e)) == hash(GroupElement(G, e))
        assert len({Character(G, e), GroupElement(G, e)}) == 2
    assert FiniteAbelianGroup((3,)) != (3,) and C3 != C3.identity()


def test_group_tables_compare_by_identity_and_stay_frozen():
    T = group_tables(C3)
    twin = _twin(type(T), [(n, dataclasses.MISSING) for n in T._fields])
    fields = [getattr(T, n) for n in T._fields]
    assert repr(T) == repr(twin(*fields))
    rebuilt = type(T)(*fields)
    assert rebuilt != T and rebuilt == rebuilt and hash(T) == object.__hash__(T)
    with pytest.raises(AttributeError):
        T.prod = ()
    assert rebuilt.prod == T.prod  # each table is cached on first use
    clone = copy.copy(T)
    assert clone is not T and clone.elements is T.elements


def _new_modules(code: str) -> set[str]:
    # -I: no user site or PYTHON* variables, so src is put on the path by
    # hand; -B: no bytecode written into the tree
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys; before = set(sys.modules); sys.path.insert(0, %r); %s; " \
            "print('\\n'.join(sorted(set(sys.modules) - before)))" % (src, code)
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_suites_and_no_dataclasses():
    new = _new_modules("import gform_lab")
    assert "gform_lab.groups" in new and "gform_lab.gforms" in new
    for name in ("dataclasses", "inspect", "json", "hashlib", "gform_lab.suites",
                 "gform_lab.cli"):
        assert name not in new, name


def test_suite_names_load_on_first_use():
    code = ("import gform_lab; names = ('Report', 'SuiteConfig', 'run_suite', 'sieve_conductors'); "
            "assert set(names) <= set(dir(gform_lab)); "
            "assert 'gform_lab.suites' not in sys.modules; "
            "resolved = [getattr(gform_lab, n) for n in names]; "
            "suites = sys.modules['gform_lab.suites']; "
            "assert resolved == [getattr(suites, n) for n in names]")
    assert "gform_lab.suites" in _new_modules(code)
    import gform_lab

    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        gform_lab.bogus


def test_suite_records_match_their_dataclasses():
    from gform_lab.suites import ACCEPTANCE_GROUPS, CheckResult, Report, SuiteConfig

    none = dataclasses.MISSING
    cases = [
        (SuiteConfig, True, [("seed", 1), ("conductor_bound", 100),
                             ("groups", tuple(ACCEPTANCE_GROUPS)), ("include_timings", False)],
         [5, 50, ((3,),), True]),
        (CheckResult, False, [("check_id", none), ("name", none), ("status", none),
                              ("details", none), ("elapsed", 0.0)], ["C1", "n", "pass", {}, 0.5]),
    ]
    for cls, frozen, fields, values in cases:
        spec = [(n, object) if d is none else (n, object, dataclasses.field(default=d))
                for n, d in fields]
        twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=frozen)
        obj, ref = cls(*values), twin(*values)
        assert repr(obj) == repr(ref)
        required = sum(d is none for _, d in fields)
        assert repr(cls(*values[:required])) == repr(twin(*values[:required]))
        params = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
        assert params == [(p.name, p.default) for p in inspect.signature(twin).parameters.values()]
        assert obj == cls(*values) and obj != ref
        if frozen:
            assert hash(obj) == hash(ref)
        else:
            with pytest.raises(TypeError):
                hash(obj)
    # a Report's checks default to a fresh list, which run_suite appends to
    config = SuiteConfig()
    a, b = Report("all", config), Report("all", config)
    a.checks.append(CheckResult("C1", "n", "pass", {}))
    assert b.checks == [] and a != b
    assert repr(b) == f"Report(suite='all', config={config!r}, checks=[])"
    with pytest.raises(TypeError):
        hash(b)
    with pytest.raises(AttributeError):
        b.checks = []


def test_no_library_module_imports_dataclasses():
    import ast

    src = Path(__file__).resolve().parents[1] / "src" / "gform_lab"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name
