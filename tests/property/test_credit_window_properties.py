"""Property tests for the in-flight ledger (`CreditWindow`).

Random admit/post/complete/clear sequences against a list-of-lists
model: whatever the order of posts and completions, the ledger's summed
weight is the model's, the credit bounds hold after every admitted
post, ``oldest()`` is the earliest uncompleted post, and completing
everything zeroes every in-flight figure.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.dispatch import CreditWindow

TARGETS = 4

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("post"),
            st.integers(min_value=0, max_value=TARGETS - 1),
            st.integers(min_value=0, max_value=12),  # 0: weightless rider
        ),
        st.tuples(
            st.just("complete"),
            st.integers(min_value=0, max_value=TARGETS - 1),
        ),
        st.tuples(
            st.just("clear"),
            st.one_of(
                st.none(), st.integers(min_value=0, max_value=TARGETS - 1)
            ),
        ),
    ),
    max_size=200,
)
bounds = st.one_of(st.none(), st.integers(min_value=1, max_value=16))


class TestCreditWindowModel:
    @given(ops=ops, window=bounds, depth=bounds)
    @settings(max_examples=200, deadline=None)
    def test_ledger_matches_model(self, ops, window, depth):
        ledger = CreditWindow(
            TARGETS, relaxed=True, window=window, per_site_depth=depth
        )
        model = [[] for _ in range(TARGETS)]  # per target: (seq, weight)
        seq = 0
        heaviest = 0

        def model_oldest():
            heads = [(fifo[0][0], t) for t, fifo in enumerate(model) if fifo]
            return min(heads)[1] if heads else None

        def reclaim():
            target = model_oldest()
            model[target].pop(0)
            ledger.complete(target)

        for op in ops:
            if op[0] == "post":
                _, target, weight = op
                ledger.admit(target, weight, reclaim)
                ledger.post(target, weight, stamp=seq)
                model[target].append((seq, weight))
                seq += 1
                heaviest = max(heaviest, weight)
                # the bounds hold right after every admitted post
                if window is not None:
                    assert ledger.weight <= max(window, heaviest)
                # (weightless riders take no credit, so the depth is
                # witnessed while everything in flight carries runs)
                if depth is not None and all(
                    w for fifo in model for _, w in fifo
                ):
                    assert ledger.pending(target) <= depth
            elif op[0] == "complete":
                target = op[1]
                if model[target]:
                    expected, _ = model[target].pop(0)
                    assert ledger.complete(target) == expected
            else:
                target = op[1]
                ledger.clear(target)
                for fifo in model if target is None else [model[target]]:
                    fifo.clear()

            assert ledger.weight == sum(
                w for fifo in model for _, w in fifo
            )
            assert len(ledger) == sum(len(fifo) for fifo in model)
            assert [ledger.pending(t) for t in range(TARGETS)] == [
                len(fifo) for fifo in model
            ]
            assert ledger.oldest() == model_oldest()
            assert ledger.max_inflight_runs >= ledger.weight

        for target, fifo in enumerate(model):
            for expected, _ in fifo:
                assert ledger.complete(target) == expected
        assert (len(ledger), ledger.weight, ledger.oldest()) == (0, 0, None)
        assert all(ledger.pending(t) == 0 for t in range(TARGETS))
        if window is not None:
            assert ledger.max_inflight_runs <= max(window, heaviest)
