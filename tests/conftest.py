import numpy as np
import pytest

from persymdet import (
    ScenarioConfig,
    assemble,
    build_transform,
    canonicalize,
    montecarlo,
    sample_dataset,
    steering,
)
from persymdet.streams import derive_stream

# scenario mix cycled by the statistic factory: exercise white and heavily
# colored clutter, off-center Doppler/steering, and secondary power offsets
_SCENARIOS = (
    dict(rho=0.0, cnr_db=0.0, gamma=1.0, nu=0.0, doppler_fc=0.0),
    dict(rho=0.5, cnr_db=5.0, gamma=0.5, nu=0.15, doppler_fc=0.1),
    dict(rho=0.9, cnr_db=10.0, gamma=2.0, nu=-0.2, doppler_fc=-0.25),
)


_TRANSFORMS = {}


def _transform(n, nu):
    key = (n, nu)
    if key not in _TRANSFORMS:
        _TRANSFORMS[key] = build_transform(steering(n, nu))
    return _TRANSFORMS[key]


def make_statistic(seed, n=8, k=16, variant=None):
    """Sufficient statistic drawn through the full public pipeline."""
    params = _SCENARIOS[(seed if variant is None else variant) % len(_SCENARIOS)]
    cfg = ScenarioConfig(n=n, k=k, **params)
    ds = sample_dataset(cfg, derive_stream(seed, 0))
    return assemble(canonicalize(ds.r, ds.rk, _transform(n, params["nu"])))


def draw_task(cfg, start, count, seed):
    """``(Zp, S)`` of trials ``start .. start + count - 1``, drawn block by block."""
    job, maps = montecarlo._Job(cfg, [], start + count, seed), montecarlo._chunk_maps(cfg)
    rows = montecarlo._block_rows(cfg.n, cfg.k, count)
    scratch = montecarlo._Scratch(rows, cfg.n, cfg.k)
    blocks = []
    for block in montecarlo._plan([count], rows):
        pieces = [p._replace(start=start + p.start, stop=start + p.stop) for p in block]
        blocks.append([a.copy() for a in montecarlo._draw_batch([job], [maps], pieces, scratch)])
    return tuple(np.concatenate(arrs) for arrs in zip(*blocks))


@pytest.fixture
def stat_factory():
    return make_statistic


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
