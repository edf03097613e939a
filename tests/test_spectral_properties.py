"""Property test of the spectral pass: over domains, cutoffs and scales, each
degree's minimum eigenvalue and rank in the single verdict (one component
solved per orbit) match a dense eigvalsh of its block, and a scan's rows
equal the single verdict's rows bit for bit."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wallachkit as wk
from wallachkit.calabi import scan_lambdas

SPECS = ("I:2,2", "I:2,3", "III:2", "III:3", "IV:3", "IV:5", "CH:2")
# The k/8 grid holds 0, negative scales and the discrete Wallach points.
LAMBDAS = st.one_of(st.integers(-8, 32).map(lambda k: k / 8), st.floats(-1.0, 4.0))


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    # dense_blocks returns a pure function, so sharing it across examples is safe.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=st.sampled_from(SPECS), cutoff=st.integers(1, 5), lam=LAMBDAS)
def test_spectral_pass_matches_dense_blocks_and_scan(spec, cutoff, lam, dense_blocks):
    dom = wk.parse_domain(spec)
    verdict = wk.psd_verdict(wk.calabi_matrix(dom, lam, cutoff))
    blocks = dense_blocks(wk.bergman_diastasis_series(dom, lam, cutoff))
    assert [bv.degree for bv in verdict.per_block] == list(blocks)
    for bv, block in zip(verdict.per_block, blocks.values()):
        vals = np.linalg.eigvalsh(block)
        scale = max(float(np.max(np.abs(block))), 1e-300)
        assert abs(bv.min_eigenvalue - vals[0]) <= 1e-12 * scale
        assert bv.rank == np.count_nonzero(vals > bv.tol)
    rows = [(r.degree, r.block_dim, r.min_eig, r.psd) for r in scan_lambdas(dom, [lam], cutoff)]
    assert rows == [
        (bv.degree, bv.dim, bv.min_eigenvalue, bv.min_eigenvalue >= -bv.tol)
        for bv in verdict.per_block
    ]
