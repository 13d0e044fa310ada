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
from persymdet.streams import derive_seed, derive_stream, stream_rekeyer

from conftest import draw_task

KEYS = [(7, 0), (7, 123_456_789_012), (7, 2**64 - 1), (-5, 3), (-(2**63), 2**40)]
M64 = 2**64 - 1
# one and two uint32 words, the 64-bit edge, negatives and values past 64 bits
SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -5, -(2**63), -(2**64) - 7, 2**64,
              2**64 + 2**32, 3 * 2**70 + 5]


def _seed_sequence_seed(master_seed, tag):
    seq = np.random.SeedSequence([master_seed & M64, tag & M64])
    return int(seq.generate_state(1, np.uint64)[0])


class TestDeriveSeed:
    @pytest.mark.parametrize("master_seed", SEED_EDGES)
    def test_edges_match_seed_sequence(self, master_seed):
        for tag in SEED_EDGES:
            assert derive_seed(master_seed, tag) == _seed_sequence_seed(master_seed, tag)

    def test_random_pairs_match_seed_sequence(self):
        rng = np.random.default_rng(2026)
        # random bit lengths, so that pairs of one and two words both occur
        words = rng.integers(0, 2**64, size=(1000, 2), dtype=np.uint64)
        shifts = rng.integers(0, 64, size=(1000, 2)).astype(np.uint64)
        for master_seed, tag in (words >> shifts).tolist():
            assert derive_seed(master_seed, tag) == _seed_sequence_seed(master_seed, tag)

    def test_is_a_64_bit_python_int(self):
        seed = derive_seed(7, 3)
        assert type(seed) is int and 0 <= seed <= M64


class TestRekeyer:
    @pytest.mark.parametrize("master_seed,index", KEYS)
    def test_bit_identical_to_derive_stream(self, master_seed, index):
        got = stream_rekeyer()(master_seed, index).standard_normal(300)
        ref = derive_stream(master_seed, index).standard_normal(300)
        assert np.array_equal(got, ref)

    def test_reuse_resets_state(self):
        # one rekeyer over many keys, each stream partly consumed, must give
        # every trial a fresh stream regardless of what came before
        rekey = stream_rekeyer()
        for draws, (master_seed, index) in zip((1, 5, 17, 300, 2), KEYS):
            rekey(master_seed, index).standard_normal(draws)
        for master_seed, index in reversed(KEYS):
            got = np.empty(33)
            rekey(master_seed, index).standard_normal(out=got)
            assert np.array_equal(got, derive_stream(master_seed, index).standard_normal(33))

    def test_odd_uint32_draw_does_not_leak(self):
        rekey = stream_rekeyer()
        rekey(1, 1).integers(0, 2**32, dtype=np.uint32)  # leaves a cached half-word
        got = rekey(1, 2).integers(0, 2**32, size=3, dtype=np.uint32)
        ref = derive_stream(1, 2).integers(0, 2**32, size=3, dtype=np.uint32)
        assert np.array_equal(got, ref)


class TestDrawBatch:
    CASES = (
        ScenarioConfig(n=8, k=16, rho=0.5, cnr_db=5.0, nu=0.1),
        ScenarioConfig(n=8, k=16, rho=0.9, cnr_db=10.0, nu=-0.2, gamma=2.0,
                       doppler_fc=0.1, hypothesis="H1", sinr_db=12.0),
        ScenarioConfig(n=7, k=15, rho=0.99, cnr_db=10.0, nu=0.15, gamma=0.25,
                       hypothesis="H1", alpha=0.4 - 0.9j),
        ScenarioConfig(n=5, k=10, rho=0.3, doppler_fc=-0.25),
        ScenarioConfig(n=32, k=64, rho=0.9, cnr_db=10.0, nu=0.1, gamma=2.0,
                       hypothesis="H1", sinr_db=10.0),
    )

    @pytest.mark.parametrize("cfg", CASES, ids=lambda c: f"n{c.n}-{c.hypothesis}")
    def test_matches_public_canonical_path(self, cfg):
        seed, start = 99, 4_000_000_123
        # drawn in blocks: span several and end in a ragged one
        block = montecarlo._block_rows(cfg.n, cfg.k, 10**6)
        count = 2 * block + block // 2
        zp, s = draw_task(cfg, start, count, seed)
        assert zp.shape == (count, cfg.n, 2) and s.shape == (count, cfg.n, cfg.n)
        xf = build_transform(steering(cfg.n, cfg.nu))
        for j in range(count):
            ds = sample_dataset(cfg, derive_stream(seed, start + j))
            stat = assemble(canonicalize(ds.r, ds.rk, xf))
            assert np.abs(zp[j] - stat.zp).max() <= 1e-12 * np.abs(stat.zp).max()
            assert np.abs(s[j] - stat.s).max() <= 1e-12 * np.abs(stat.s).max()
