"""Regression tests pinning bugs found during calibration (DESIGN.md §7).

Each test encodes a microarchitecturally meaningful failure mode this
reproduction hit; if a refactor re-introduces one, these fail first.
"""

from hypothesis import given, settings, strategies as st

from repro.rfp.prefetch_table import PrefetchTable

PC = 0x400020


def make_pt(**kwargs):
    kwargs.setdefault("num_entries", 64)
    kwargs.setdefault("assoc", 4)
    kwargs.setdefault("confidence_increment_prob", 1.0)
    return PrefetchTable(**kwargs)


class TestInflightSkewRegression:
    """Bug 1: entries created at first training (not first allocation)
    leave pre-existing in-flight instances uncounted forever."""

    def test_window_of_preexisting_instances_is_counted(self):
        pt = make_pt()
        # A window's worth of instances allocates before anything retires.
        for _ in range(40):
            pt.on_allocate(PC)
        assert pt.lookup(PC).inflight == 40
        # Retire them all, training along the way.
        for k in range(40):
            pt.train(PC, 0x1000 + 8 * k, commit=True)
        assert pt.lookup(PC).inflight == 0

    def test_steady_state_prediction_is_exact(self):
        """With a constant stride, steady-state predictions must equal the
        dynamic instance's actual address exactly — even with a deep
        in-flight window between training and allocation."""
        pt = make_pt()
        stride = 8
        window = 30
        addr_of = lambda i: 0x2000 + stride * i
        # Warm confidence.
        for k in range(8):
            pt.on_allocate(PC)
            pt.train(PC, addr_of(k), commit=True)
        next_alloc = 8
        next_commit = 8
        # Fill a window.
        predictions = {}
        for _ in range(window):
            _, predicted = pt.on_allocate(PC)
            predictions[next_alloc] = predicted
            next_alloc += 1
        # Steady state: one commit, one alloc, repeatedly.
        for _ in range(200):
            pt.train(PC, addr_of(next_commit), commit=True)
            next_commit += 1
            eligible, predicted = pt.on_allocate(PC)
            assert eligible
            predictions[next_alloc] = predicted
            next_alloc += 1
        wrong = [i for i, p in predictions.items()
                 if p is not None and p != addr_of(i)]
        assert not wrong, "steady-state predictions must be exact: %r" % wrong[:5]


class TestMispredictionSyncRegression:
    """Bug 2: repairing the PT base from an *issuing* load desynchronises
    base and inflight counter permanently."""

    def test_on_misprediction_preserves_sync(self):
        pt = make_pt()
        addr_of = lambda i: 0x3000 + 8 * i
        for k in range(8):
            pt.on_allocate(PC)
            pt.train(PC, addr_of(k), commit=True)
        # Several instances in flight; a misprediction is reported with an
        # issuing instance's address (which is ahead of the retired base).
        for _ in range(10):
            pt.on_allocate(PC)
        pt.on_misprediction(PC, addr_of(14))
        # Confidence must drop (stop prefetching)...
        assert pt.lookup(PC).confidence == 0
        # ...and once training catches up, predictions are exact again.
        for k in range(8, 18):
            pt.train(PC, addr_of(k), commit=True)
        eligible, predicted = pt.on_allocate(PC)
        assert eligible and predicted == addr_of(18)


@settings(max_examples=30, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=100),
    stride=st.sampled_from([-16, -8, 8, 16, 24]),
    warm=st.integers(min_value=4, max_value=20),
)
def test_prediction_exactness_property(window, stride, warm):
    """For any window depth below the inflight-counter cap and any stable
    small stride, predictions are exact."""
    pt = make_pt(inflight_bits=7)
    if window > 127:
        return
    base = 0x100000
    addr_of = lambda i: base + stride * i
    for k in range(warm):
        pt.on_allocate(PC)
        pt.train(PC, addr_of(k), commit=True)
    # Open a window of `window` outstanding instances.
    predicted_for = {}
    index = warm
    for _ in range(window):
        _, predicted = pt.on_allocate(PC)
        predicted_for[index] = predicted
        index += 1
    # Drain in order.
    commit = warm
    for _ in range(window):
        pt.train(PC, addr_of(commit), commit=True)
        commit += 1
    for i, predicted in predicted_for.items():
        if predicted is not None:
            assert predicted == addr_of(i)


class TestStreamerFrontRobustness:
    """Bug 3: PC-indexed stride detection at the L2 collapses when RFP and
    demand fronts interleave; the page streamer must not."""

    def test_two_fronts_thirty_lines_apart(self):
        from repro.memory.prefetcher import L2StridePrefetcher
        pf = L2StridePrefetcher(degree=4, threshold=2)
        early = iter(range(1000, 1200))   # RFP front (runs ahead)
        late = iter(range(970, 1170))     # demand front (trails by 30)
        fired = 0
        for _ in range(150):
            if pf.train(0x10, next(early)):
                fired += 1
            if pf.train(0x10, next(late)):
                fired += 1
        assert fired > 50
