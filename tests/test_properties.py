"""Property tests over the configuration space of the scalar API.

Every configuration that passes validation ends in a value or a typed
``PersymError``, and the invariant statistics do not move when ``S`` is
scaled by any ``phi`` in [1e-300, 1e300].
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persymdet import (
    PersymError,
    ScenarioConfig,
    act_scale,
    assemble,
    build_transform,
    canonicalize,
    compute_psi,
    glr,
    mis,
    rao,
    sample_dataset,
    steering,
    two_step_glr,
    wald,
)
from persymdet.streams import derive_stream

# least denominator of a relative deviation, as in invariance_report
_FLOOR = 1e-12


def _invariants(stat):
    psis = compute_psi(stat)
    k, n = stat.k, stat.n
    return np.array(
        [glr(psis, k, n), two_step_glr(psis), rao(psis, k, n), wald(psis, k, n),
         *mis(psis).as_array()]
    )


@st.composite
def _cases(draw):
    n = draw(st.integers(3, 10))
    # K >= N: the scale estimates need K + 1 > N
    k = draw(st.integers(n, 3 * n))
    return dict(
        n=n,
        k=k,
        rho=draw(st.floats(0.0, 0.99)),
        gamma=10.0 ** draw(st.floats(-2.0, 2.0)),
        nu=draw(st.floats(-0.5, 0.5, exclude_max=True)),
        doppler_fc=draw(st.floats(-0.5, 0.5, exclude_max=True)),
        cnr_db=draw(st.floats(-10.0, 20.0)),
    )


@pytest.mark.filterwarnings("ignore::UserWarning")  # K < 2N training support
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # products of S overflow near 1e300
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cases(), st.floats(-300.0, 300.0), st.integers(0, 2**32 - 1))
def test_scale_invariance_over_the_float_range(params, log_phi, seed):
    cfg = ScenarioConfig(**params)
    ds = sample_dataset(cfg, derive_stream(seed, 0))
    stat = assemble(canonicalize(ds.r, ds.rk, build_transform(steering(cfg.n, cfg.nu))))
    try:
        base = _invariants(stat)
    except PersymError:
        return  # a typed failure is an allowed end; it must then not depend on phi
    moved = _invariants(act_scale(10.0**log_phi, stat))
    assert np.isfinite(base).all() and np.isfinite(moved).all()
    deviation = np.abs(moved - base) / np.maximum(np.abs(base), _FLOOR)
    assert deviation.max() <= 1e-10, (params, log_phi, deviation)
