"""Property-based tests (hypothesis) on the coverage feedback layer.

The coverage signal is what the whole campaign steers by, so its
algebra gets adversarial inputs:

* Algorithm 1's XOR edge encoding — direction sensitivity, slot range,
  counter saturation;
* AFL count bucketing — exact boundary transitions at the documented
  bucket edges;
* the global virgin map — classify/update agreement, monotonic density,
  idempotent re-observation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execcore import HAVE_NUMPY
from repro.fuzz.coverage import MAP_SIZE, GlobalCoverage
from repro.instrument.counter_map import (_BUCKETS, BUCKET_MASKS, PM_MAP_SIZE,
                                          bucket_of, PMCounterMap)

op_ids = st.integers(min_value=0, max_value=2**20)
op_sequences = st.lists(op_ids, max_size=60)
#: Sparse execution coverage as PMCounterMap.sparse() produces it:
#: at most one (slot, count) entry per slot.
sparse_maps = st.lists(
    st.tuples(st.integers(0, MAP_SIZE - 1), st.integers(0, 255)),
    max_size=40, unique_by=lambda pair: pair[0])
#: The same, with counts no 8-bit map produces (the merge must still
#: bucket them exactly as ``bucket_of`` does).
wide_sparse_maps = st.lists(
    st.tuples(st.integers(0, MAP_SIZE - 1), st.integers(-300, 1 << 20)),
    max_size=40, unique_by=lambda pair: pair[0])


# ----------------------------------------------------------------------
# Algorithm 1: the XOR edge encoding
# ----------------------------------------------------------------------
class TestEdgeEncoding:
    @given(op_sequences)
    def test_slots_follow_the_xor_shift_recurrence(self, ops):
        pm = PMCounterMap()
        prev = 0
        for op in ops:
            expected = (op ^ prev) & (PM_MAP_SIZE - 1)
            assert pm.update(op) == expected
            prev = op >> 1

    @given(op_ids, op_ids)
    def test_encoding_is_direction_sensitive(self, a, b):
        # A→B and B→A land in different slots unless the shifted IDs
        # collide after masking (rare but legal for IDs ≥ the map size).
        mask = PM_MAP_SIZE - 1
        ab, ba = PMCounterMap(), PMCounterMap()
        ab.update(a)
        ba.update(b)
        if (a ^ (b >> 1)) & mask != (b ^ (a >> 1)) & mask:
            assert ab.update(b) != ba.update(a)

    @given(op_sequences)
    def test_touched_matches_sparse_and_counters(self, ops):
        pm = PMCounterMap()
        for op in ops:
            pm.update(op)
        sparse = dict(pm.sparse())
        assert set(sparse) == pm.touched
        assert all(pm.counters[slot] == count
                   for slot, count in sparse.items())
        assert sorted(pm.touched) == pm.nonzero_slots()

    @given(st.integers(0, 1))
    @settings(max_examples=4)
    def test_counters_saturate_at_255(self, op):
        # op ∈ {0, 1} keeps prev_id at 0, so every update revisits the
        # same transition slot: the counter must pin at 255, not wrap.
        pm = PMCounterMap()
        slot = pm.update(op)
        for _ in range(300):
            assert pm.update(op) == slot
        assert pm.counters[slot] == 255
        assert dict(pm.sparse())[slot] == 255

    @given(op_sequences)
    def test_reset_restores_the_initial_state(self, ops):
        pm = PMCounterMap()
        for op in ops:
            pm.update(op)
        pm.reset()
        assert pm.path_count() == 0
        assert pm.touched == set()
        fresh = PMCounterMap()
        for op in ops:
            assert pm.update(op) == fresh.update(op)


# ----------------------------------------------------------------------
# AFL count bucketing
# ----------------------------------------------------------------------
class TestBucketing:
    def test_exact_boundary_transitions(self):
        # Each documented bucket edge is the first count of its bucket.
        for i, edge in enumerate(_BUCKETS):
            assert bucket_of(edge) == i
            if edge > 0:
                assert bucket_of(edge - 1) == i - 1

    @given(st.integers(0, 255))
    def test_bucket_is_monotone_in_count(self, count):
        if count < 255:
            assert bucket_of(count) <= bucket_of(count + 1)

    @given(st.integers(0, 255))
    def test_every_count_has_a_bucket_in_range(self, count):
        assert 0 <= bucket_of(count) < len(_BUCKETS) <= 16

    def test_mask_table_is_the_bucket_bit(self):
        assert BUCKET_MASKS == tuple(1 << (bucket_of(c) & 7)
                                     for c in range(256))

    @given(st.integers(0, 254), st.integers(1, 255))
    def test_same_bucket_counts_are_not_new_coverage(self, a, b):
        cov = GlobalCoverage()
        cov.update([(7, a or 1)])
        new_slot, new_bucket, _ = cov.classify([(7, b)])
        assert not new_slot
        assert new_bucket == (bucket_of(b) != bucket_of(a or 1))


# ----------------------------------------------------------------------
# The global virgin map
# ----------------------------------------------------------------------
class TestGlobalCoverage:
    @given(sparse_maps)
    def test_classify_never_mutates(self, sparse):
        cov = GlobalCoverage()
        cov.update([(1, 3), (2, 200)])
        before = dict(cov.virgin)
        cov.classify(sparse)
        assert cov.virgin == before

    @given(sparse_maps)
    def test_classify_agrees_with_update(self, sparse):
        cov = GlobalCoverage()
        cov.update([(1, 3), (2, 200)])
        predicted_slot, predicted_bucket, new_slots = cov.classify(sparse)
        observed = cov.update(sparse)
        assert observed == (predicted_slot, predicted_bucket)
        populated = {slot for slot, count in sparse if count}
        assert set(new_slots) <= populated

    @given(st.lists(sparse_maps, max_size=8))
    def test_density_is_monotone_over_a_campaign(self, executions):
        cov = GlobalCoverage()
        last = 0
        for sparse in executions:
            cov.update(sparse)
            assert cov.slots_covered >= last
            assert 0 <= cov.slots_covered <= MAP_SIZE
            last = cov.slots_covered
        assert set(cov.covered_slots()) == {
            slot for sparse in executions
            for slot, count in sparse if count} & set(cov.virgin)

    @given(sparse_maps)
    def test_reobservation_is_idempotent(self, sparse):
        cov = GlobalCoverage()
        cov.update(sparse)
        state = dict(cov.virgin)
        assert cov.update(sparse) == (False, False)
        assert cov.virgin == state
        assert cov.classify(sparse)[:2] == (False, False)

    @given(sparse_maps)
    def test_zero_counts_are_invisible(self, sparse):
        cov = GlobalCoverage()
        cov.update([(slot, 0) for slot, _ in sparse])
        assert cov.slots_covered == 0
        new_slot, new_bucket, new_slots = cov.classify(
            [(slot, 0) for slot, _ in sparse])
        assert (new_slot, new_bucket, new_slots) == (False, False, [])

    @given(st.lists(wide_sparse_maps, max_size=6))
    def test_merge_buckets_every_count_like_bucket_of(self, executions):
        # Reference virgin map built straight from bucket_of.
        cores = [GlobalCoverage()]
        if HAVE_NUMPY:
            from repro.fuzz.coverage import VectorGlobalCoverage
            cores.append(VectorGlobalCoverage())
        reference = {}
        for sparse in executions:
            new_slots, bucket_hit = [], False
            for slot, count in sparse:
                if not count:
                    continue
                mask = 1 << (bucket_of(count) & 7)
                seen = reference.get(slot, 0)
                if seen == 0:
                    new_slots.append(slot)
                elif not seen & mask:
                    bucket_hit = True
            expected = (bool(new_slots), bucket_hit, new_slots)
            for cov in cores:
                assert cov.classify(sparse) == expected
                assert cov.update(sparse) == expected[:2]
            for slot, count in sparse:
                if count:
                    reference[slot] = (reference.get(slot, 0)
                                       | 1 << (bucket_of(count) & 7))
            for cov in cores:
                assert cov.virgin == reference
