import pytest

from morita_lab.fields import F2, F3, FieldSpec
from morita_lab import algebras as alg


@pytest.fixture(scope="session", autouse=True)
def frozen_arrays_are_normalized():
    """FieldSpec.freeze no longer normalizes: an array is normalized where it
    is produced.  Fail the test that freezes an F_p entry outside 0..p-1."""
    freeze = FieldSpec.freeze

    def checked(self, a):
        if self.kind == "prime" and a.size and (a.min() < 0 or a.max() >= self.p):
            pytest.fail(f"froze an F_{self.p} array that is not normalized: {a!r}")
        return freeze(self, a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FieldSpec, "freeze", checked)
        yield


@pytest.fixture(scope="session")
def a2_f3():
    """Path algebra of 1 -> 2 over F_3 (basis e_1, e_2, a1)."""
    return alg.path_algebra(alg.linear_quiver(2), [], F3, name="kA2")


@pytest.fixture(scope="session")
def a2_f2():
    return alg.path_algebra(alg.linear_quiver(2), [], F2, name="kA2")


@pytest.fixture(scope="session")
def nakayama_f3():
    """Self-injective Nakayama algebra on the 3-cycle with paths of length 2 killed."""
    q = alg.cyclic_quiver(3)
    return alg.path_algebra(q, alg.nakayama_relations(q, 2), F3, name="Nak(3,2)")
