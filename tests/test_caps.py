"""The one working-set budget and the row chunks every chunked pass takes."""

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from crdcache import caps as caps_module
from crdcache.caps import row_chunks


@given(
    n=st.integers(0, 300),
    row_bytes=st.integers(1, 1 << 24),
    budget=st.sampled_from([1, 7, 64, 4096, caps_module.WORK_BYTES]),
)
def test_row_chunks_partition_the_rows_within_the_budget(n, row_bytes, budget):
    """The slices cover rows 0..n-1 once, in order; each holds at most
    max(1, WORK_BYTES // row_bytes) rows, every one but the last exactly
    that many, with WORK_BYTES read when ``row_chunks`` is called."""
    with mock.patch.object(caps_module, "WORK_BYTES", budget):
        chunks = list(row_chunks(n, row_bytes))
    most = max(1, budget // row_bytes)
    assert [i for chunk in chunks for i in range(n)[chunk]] == list(range(n))
    assert all(chunk.step is None for chunk in chunks)
    assert [chunk.stop - chunk.start for chunk in chunks[:-1]] == [most] * (len(chunks) - 1)
    assert all(0 < chunk.stop - chunk.start <= most for chunk in chunks)
