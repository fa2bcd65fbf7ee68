"""The twist data is a frozen value, and a coefficient becomes a series
one way: ``c * f`` is ``sd.embed(c) * f``, the rowwise product c * f_j."""

from __future__ import annotations

import pickle
from random import Random

import pytest

from skewseries import CoeffSeries, SkewData, build_skew
from skewseries.coeff import vmul
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext, _Frozen
from skewseries.skew import EPSILON_GUARD

import kernel_oracle as ko
from test_kernels import GRID
from util import rand_coeff, rand_series


def test_skew_data_is_a_frozen_value_class():
    assert issubclass(SkewData, _Frozen)
    for name in ("__eq__", "__hash__", "__setattr__", "__delattr__"):
        assert name not in vars(SkewData)
    assert not hasattr(SkewData, "_eps_raw")


@pytest.mark.parametrize("mode", [INTEGRAL, CHARP])
def test_skew_data_fields_refuse_assignment_and_del(mode):
    sd = build_skew(PrecisionContext(3, 4, mode), 4)
    fresh = build_skew(PrecisionContext(3, 4, mode), 4)
    other_ctx = PrecisionContext(5, 4, mode)
    for name, value in (("ctx", other_ctx), ("epsilon_raw", 7), ("_sig_cols", ())):
        before = getattr(sd, name)
        with pytest.raises(AttributeError):
            setattr(sd, name, value)
        with pytest.raises(AttributeError):
            delattr(sd, name)
        assert getattr(sd, name) is before
    assert sd == fresh and hash(sd) == hash(fresh)
    assert repr(sd) == f"SkewData(p=3, K=4, mode={mode}, eps=4)"


@pytest.mark.parametrize("mode", [INTEGRAL, CHARP])
def test_skew_data_identity_reads_the_guarded_exponent(mode):
    ctx = PrecisionContext(3, 4, mode)
    q = 3 ** (4 + EPSILON_GUARD)
    sd, same, other = build_skew(ctx, 4), build_skew(ctx, 4 + q), build_skew(ctx, 4 + q // 3)
    assert hash(sd) == hash((sd.ctx, sd.epsilon_raw % q))
    assert sd == same and hash(sd) == hash(same) and same.epsilon_raw == 4 + q
    assert sd != other
    assert sd.__eq__(ctx) is NotImplemented and (sd == ctx, sd != 4) == (False, True)
    assert pickle.loads(pickle.dumps(same)).epsilon_raw == 4 + q


@pytest.mark.parametrize("p, eps, mode", GRID)
def test_left_coefficient_action_is_embed_then_multiply(p, eps, mode):
    for K in (1, 2, 3, 8, 17):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        rng = Random(f"left-action:{p}:{eps}:{mode}:{K}")
        for _ in range(3 if K <= 3 else 1):
            f = rand_series(sd, rng)
            for c in (rand_coeff(sd.ctx, rng), rng.randrange(-50, 50), CoeffSeries.x(sd.ctx)):
                cf = c * f
                assert cf == sd.embed(c) * f
                cv = sd.embed(c).rows[0]
                rowwise = tuple(vmul(sd.ctx, cv, r, K - j) for j, r in enumerate(f.rows))
                assert cf.rows == rowwise == ko._mul_rows(sd, sd.embed(c).rows, [f.rows])
