import pytest

from semiam.clifford import CliffordSemigroup, FiniteAbelianGroup, build_clifford, generator_images
from semiam.semilattice import Semilattice, from_hasse

SIX_COVERS = [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 5), (4, 5)]
SIX_LABELS = ["o", "s1", "s2", "s3", "s4", "1"]


def make_six() -> Semilattice:
    """Six-element lattice: o < s1,s2,s4; s1,s2 < s3; s3,s4 < 1."""
    s = from_hasse(6, SIX_COVERS, labels=SIX_LABELS)
    assert isinstance(s, Semilattice)
    return s


def images_of(groups, homs) -> dict:
    """{(s, t): gen_images} of a system of image tuples over these groups,
    as hom_systems lists them: the form build_clifford takes."""
    return {(s, t): generator_images(groups[s], groups[t], images)
            for (s, t), images in homs.items()}


def make_g(n: int) -> CliffordSemigroup:
    """Cyclic group of order n glued in at s3 of the six-element lattice."""
    six = make_six()
    groups = [FiniteAbelianGroup([k]) for k in (1, 1, 1, n, 1, 1)]
    g = build_clifford(six, groups, {})
    assert isinstance(g, CliffordSemigroup)
    return g


@pytest.fixture
def six() -> Semilattice:
    return make_six()


@pytest.fixture
def g_family():
    return make_g


def make_tree() -> Semilattice:
    """o < a < b, c (four elements, two incomparable tops over a chain)."""
    s = from_hasse(4, [(0, 1), (1, 2), (1, 3)], labels=["o", "a", "b", "c"])
    assert isinstance(s, Semilattice)
    return s


def make_broom() -> Semilattice:
    """o < a, b with c above a only."""
    s = from_hasse(4, [(0, 1), (0, 2), (1, 3)], labels=["o", "a", "b", "c"])
    assert isinstance(s, Semilattice)
    return s
