"""Direct sums are built by placement: the tensor of a sum is assembled from
the summands' tensors (algebras.tensor_of_sum), and direct_sum carries
memoized vertex classes.  Each is checked here against what the elimination
builds from scratch; the placed structure maps of lambda_direct_sum are
checked in tests/test_morita.py."""

import random

import numpy as np
import pytest

from morita_lab import algebras as alg
from morita_lab import lab
from morita_lab import morita as mor
from morita_lab.fields import F3, QQ, FieldSpec

FIELDS = [F3, QQ, FieldSpec("prime", (1 << 31) - 1)]
IDS = ["F3", "QQ", "F2147483647"]


def _same(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert [repr(v) for v in a.flat] == [repr(v) for v in b.flat]


def _fresh(m):
    """The bimodule m again, with an empty tensor memo."""
    return alg.Bimodule(m.left_algebra, m.right_algebra, m.dim, m.left_action, m.right_action)


def _unclassed(x):
    """x in the basis e_0 + e_1, e_1, ...: the idempotents no longer act as
    0/1 diagonal matrices when the first two coordinates lie in different
    vertex classes."""
    f = x.field
    p, p_inv = f.eye(x.dim), f.eye(x.dim)
    p[1, 0], p_inv[1, 0] = f.one, f.scalar(-1)
    acts = alg._left_times(f, p_inv, alg._times(f, x.action, p))
    return alg.Module(x.algebra, x.dim, acts)


def _pool(algebra, sampler):
    """Sampled modules, a zero module and one without vertex classes."""
    mods = [sampler.plain(algebra) for _ in range(5)]
    unclassed = next(_unclassed(x) for x in mods + alg.indecomposable_projectives(algebra)
                     if x.dim > 1 and x.vertex_classes() is not None
                     and x.vertex_classes()[0] != x.vertex_classes()[1])
    assert unclassed.vertex_classes() is None
    return mods + [alg.zero_module(algebra), unclassed]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_the_tensor_of_a_sum_is_the_elimination_of_the_sum(field):
    """tensor_of_sum assembles from the summands' tensors exactly what
    _tensor_presentation eliminates for the sum, entry for entry, on M and
    on N, also with a zero summand and a summand without vertex classes;
    a later tensor_over returns the assembled instance."""
    rng = random.Random(24)
    seen_zero = seen_unclassed = 0
    for name in ("ie", "examctp4"):
        data = lab.catalog(name, field).data
        for bim, algebra in ((data.M, data.A), (data.N, data.B)):
            pool = _pool(algebra, lab.Sampler(rng.randrange(1000), dim_cap=5, rank_cap=2))
            for _ in range(12):
                parts = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
                seen_zero += any(x.dim == 0 for x in parts)
                seen_unclassed += any(x.vertex_classes() is None for x in parts)
                m = _fresh(bim)
                tensors = [alg.tensor_over(m, x) for x in parts]
                s = alg.direct_sum(parts)[0]
                t, positions = alg.tensor_of_sum(m, s, tensors)
                ref = alg._tensor_presentation(m, alg.Module(algebra, s.dim, s.action))
                for got, want in ((t.module.action, ref.module.action),
                                  (t.surjection, ref.surjection),
                                  (t.section, ref.section), (t.kept, ref.kept)):
                    _same(got, want)
                assert (t.outer, t.inner) == (ref.outer, ref.inner)
                assert alg.tensor_over(m, s) is t
                assert alg.tensor_over(m, alg.Module(algebra, s.dim, s.action)) is t
                # each summand's free pure tensors m_i (x) x_j sit at its
                # positions, moved to i * dim S + offset + j
                offset = 0
                for part, pos in zip(tensors, positions):
                    u, j = np.divmod(part.kept, max(part.inner, 1))
                    assert t.kept[pos].tolist() == (u * s.dim + offset + j).tolist()
                    offset += part.inner
                assert not t.kept.flags.writeable
    assert seen_zero and seen_unclassed


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_carried_classes_are_the_built_ones(field):
    """direct_sum carries its summands' memoized vertex classes: their
    concatenation, or None when a summand has none, as a fresh
    _build_vertex_classes of the sum gives; with a summand whose classes are
    not memoized, the sum's are built when asked."""
    data = lab.catalog("examctp4", field).data
    pool = _pool(data.A, lab.Sampler(7, dim_cap=5, rank_cap=2))
    unclassed = pool[-1]
    cases = [pool[:3], [pool[0], pool[-2]], [pool[1], unclassed], [unclassed], [pool[-2]]]
    for mods in cases:
        for x in mods:
            x.vertex_classes()
        s = alg.direct_sum(mods)[0]
        carried = s._cache["classes"]
        assert carried == s._build_vertex_classes()
        assert (carried is None) == (unclassed in mods)
    x = alg.Module(data.A, pool[0].dim, pool[0].action)  # nothing memoized
    s = alg.direct_sum([x, pool[1]])[0]
    assert "classes" not in s._cache
    assert s.vertex_classes() == s._build_vertex_classes()


def test_direct_sum_views_one_frozen_identity():
    """The injection and projection matrices are views of one frozen
    identity, which the constructors share instead of copying."""
    a = lab.catalog("examctp4", F3).data.A
    mods = alg.indecomposable_projectives(a)[:2]
    s, injs, projs = alg.direct_sum(mods)
    base = injs[0].matrix.base
    assert base is not None and not base.flags.writeable
    assert all(phi.matrix.base is base for phi in injs + projs)


def test_sums_across_rings_are_refused():
    """A direct sum of modules over different algebra objects, or of
    quadruples over different MoritaData objects, is a ValueError, even when
    the two are equal in content."""
    one, two = lab.catalog("ie", F3).data, lab.catalog("ie", F3).data
    p_one = alg.indecomposable_projectives(one.A)[0]
    p_two = alg.indecomposable_projectives(two.A)[0]
    with pytest.raises(ValueError, match="different algebras"):
        alg.direct_sum([p_one, p_two])
    with pytest.raises(ValueError, match="different Morita data"):
        mor.lambda_direct_sum([mor.functor_T(one, "A", p_one),
                               mor.functor_T(two, "B", alg.indecomposable_projectives(two.B)[0])])
    alg.direct_sum([p_one, p_one])
    mor.lambda_direct_sum([mor.functor_T(one, "A", p_one)] * 2)
