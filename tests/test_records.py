"""The value classes: equality, hash and immutability, and an import of
z2bord that loads neither dataclasses nor inspect."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import z2bord
from z2bord.graphs import LabeledGraph
from z2bord.membership import (
    ConstraintSystem,
    build_constraint_system,
    check_membership,
    Group,
    MembershipCertificate,
    RhoDecomposition,
    Violation,
)
from z2bord.milnor import SearchReport, SubsetFamily
from z2bord.orbits import PolynomialOrbit
from z2bord.repalg import Polynomial
from z2bord.report import Checkpoint, ReproductionReport
from z2bord.smallcover import CharacteristicFunction, ProductOfSimplices


def poly(*monomials):
    return Polynomial(frozenset(monomials), 3, 3)


VIOLATION = Violation(4, 2, (0, 0, 1), (4,))


def report(elapsed_s):
    return ReproductionReport([Checkpoint("c", "1", "1", elapsed_s)])


# Class -> (a function that builds an instance, one that builds an instance
# with other fields, whether instances are immutable).
CASES = {
    Polynomial: (lambda: poly((1, 2, 4)), lambda: poly((1, 2, 4), (3, 5, 6)), True),
    PolynomialOrbit: (lambda: PolynomialOrbit(poly((1, 2, 4)), frozenset([poly((1, 2, 4))]),
                                              ((4, 2, 1),)),
                      lambda: PolynomialOrbit(poly((1, 2, 4)), frozenset([poly((1, 2, 4))]), ()),
                      True),
    Group: (lambda: Group(1, (1, 2), frozenset([(1, 2, 4)])),
            lambda: Group(2, (1, 2), frozenset([(1, 2, 4)])), True),
    RhoDecomposition: (lambda: RhoDecomposition(4, (Group(1, (1, 2), frozenset()),)),
                       lambda: RhoDecomposition(4, ()), True),
    Violation: (lambda: Violation(4, 2, (0, 0, 1), (4,)),
                lambda: Violation(4, 2, (0, 0, 1), (4, 4)), True),
    MembershipCertificate: (lambda: MembershipCertificate(False, VIOLATION),
                            lambda: MembershipCertificate(True), True),
    # (n, k, prefix, seeds): the full monomial list and rows are not fields.
    ConstraintSystem: (lambda: ConstraintSystem(2, 2, ((1, 2), (1, 3)), ((1, 0),)),
                       lambda: ConstraintSystem(2, 2, ((1, 2), (1, 3)), ()), True),
    LabeledGraph: (lambda: LabeledGraph(1, (("a", "b", 1),)),
                   lambda: LabeledGraph(1, (("a", "c", 1),)), True),
    ProductOfSimplices: (lambda: ProductOfSimplices((1, 4)),
                         lambda: ProductOfSimplices((4, 1)), True),
    CharacteristicFunction: (lambda: CharacteristicFunction(ProductOfSimplices((1,)), (1, 1)),
                             lambda: CharacteristicFunction(ProductOfSimplices((2,)), (1, 1)),
                             True),
    SubsetFamily: (lambda: SubsetFamily.make(3, ["2", "12"]),
                   lambda: SubsetFamily.make(3, ["12", "2"]), True),
    Checkpoint: (lambda: Checkpoint("c", "1", "1", 0.5),
                 lambda: Checkpoint("c", "1", "2", 0.5), True),
    SearchReport: (lambda: SearchReport(840, 0, {poly((1, 2, 4))}, [[]], [0]),
                   lambda: SearchReport(840, 0, set(), [[]], [0]), False),
    ReproductionReport: (lambda: report(0.5), lambda: report(0.25), False),
}
# The classes built by Record's constructor, one value per field.
BASE_CONSTRUCTED = {PolynomialOrbit, ConstraintSystem, LabeledGraph, ProductOfSimplices,
                    CharacteristicFunction}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    make, make_other, frozen = CASES[cls]
    a, b, other = make(), make(), make_other()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other
    assert repr(a) == repr(b) and repr(a).startswith(cls.__name__ + "(")
    name = cls._fields[0]
    if frozen:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, getattr(other, name))
        assert getattr(a, name) == getattr(other, name)
    if cls in BASE_CONSTRUCTED:
        assert "__init__" not in vars(cls)
        values = b._values()
        for wrong in (values[:-1], values + (None,)):
            with pytest.raises(TypeError, match=cls.__name__):
                cls(*wrong)


def test_certificate_equality_ignores_polynomial():
    a = MembershipCertificate(False, VIOLATION, poly((1, 2, 4)))
    b = MembershipCertificate(False, VIOLATION, poly((3, 5, 6)))
    assert a == b and hash(a) == hash(b)
    assert a == MembershipCertificate(False, violation=VIOLATION)
    assert "polynomial" not in repr(a)
    # check_membership's rejection holds its polynomial and decodes its
    # violation when first read, and equality, hash and repr each read it.
    p = poly((1, 2, 4))
    explicit = MembershipCertificate(False, Violation(1, 1, (0, 1, 2), ()))
    undecoded = [check_membership(p) for _ in range(3)]
    assert not any("violation" in vars(cert) for cert in undecoded)
    assert undecoded[0] == explicit
    assert hash(undecoded[1]) == hash(explicit)
    assert repr(undecoded[2]) == repr(explicit)


def test_constraint_systems_compare_without_making_their_rows():
    a, b = build_constraint_system(5, 3), build_constraint_system(5, 3)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert not {"monomials", "rows"} & (set(vars(a)) | set(vars(b)))
    assert a.rows == b.rows and len(a.rows) == 490


def test_import_loads_neither_dataclasses_nor_inspect():
    # pytest itself imports both, so the import runs in a fresh interpreter,
    # and -S keeps site's own imports out of it.
    package = Path(z2bord.__file__).parent
    modules = sorted(f"z2bord.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
