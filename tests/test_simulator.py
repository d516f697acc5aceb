"""Byte-exact broadcast: stores, caches, payloads, decoders, reports."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdcache import errors
from crdcache.constructions import affine_plane, catalog_example, from_spec
from crdcache.designs import crd_profile
from crdcache.scheme import CodedTransmission, DeliverySchedule, build_delivery_schedule, build_scheme
from crdcache.simulator import (
    CacheView,
    build_caches,
    decode_user,
    encode_payloads,
    make_file_store,
    payload_hex_dump,
    report_to_json,
    split_subfiles,
    subfile_length,
    verify_all,
)
from oracles import int_xor_payloads, scan_participation

ORACLE_SPECS = (
    [f"example:{i}" for i in range(1, 10)]
    + [f"affine:n={n}" for n in range(2, 6)]
    + [f"hadamard:m={m}" for m in range(1, 5)]
)


def _oracle_points():
    for spec in ORACLE_SPECS:
        res = from_spec(spec)
        for z in [1] + sorted(crd_profile(res).mu):
            yield pytest.param(spec, z, id=f"{spec}-z{z}")


class CountingTuple(tuple):
    """A tuple that counts how often it is iterated from the start."""

    def __iter__(self):
        self.iterations = getattr(self, "iterations", 0) + 1
        return super().__iter__()


class TestFileStore:
    def test_deterministic(self):
        assert make_file_store(2, 1, 0) == make_file_store(2, 1, 0)
        assert make_file_store(3, 64, 7) == make_file_store(3, 64, 7)
        assert make_file_store(2, 16, 0).files != make_file_store(2, 16, 1).files

    def test_shape(self):
        store = make_file_store(9, 900, 7)
        assert len(store.files) == 9
        assert all(len(f) == 900 for f in store.files)

    def test_padding(self):
        assert subfile_length(10, 4) == 3
        subs = split_subfiles(b"0123456789", 4)
        assert [len(s) for s in subs] == [3, 3, 3, 3]
        assert b"".join(subs) == b"0123456789\x00\x00"

    def test_rejects_empty(self):
        with pytest.raises(errors.DemandOutOfRange):
            make_file_store(0, 4)
        with pytest.raises(errors.DemandOutOfRange):
            make_file_store(1, 0)


class TestPayloads:
    def test_xor_involution(self):
        res = catalog_example(3)
        scheme = build_scheme(res, 2, 9)
        schedule = build_delivery_schedule(scheme, range(1, 10))
        store = make_file_store(9, 90, 3)
        payloads = encode_payloads(schedule, store)
        assert len(payloads) == 9
        subs = [split_subfiles(f, res.design.v) for f in store.files]
        t = schedule.transmissions[0]
        acc = payloads[0]
        for uid, y in t.terms[:-1]:
            acc = bytes(
                a ^ b for a, b in zip(acc, subs[schedule.demands[uid] - 1][y - 1])
            )
        last_uid, last_y = t.terms[-1]
        assert acc == subs[schedule.demands[last_uid] - 1][last_y - 1]

    def test_payload_and_report_determinism(self):
        res = catalog_example(4)

        def run():
            schedule = build_delivery_schedule(build_scheme(res, 2, 12), range(1, 13))
            return encode_payloads(schedule, make_file_store(12, 40, 11))

        assert run() == run()
        assert verify_all(res, 2, 12, 40, seed=11) == verify_all(res, 2, 12, 40, seed=11)

    def test_hex_dump(self):
        res = catalog_example(3)
        schedule = build_delivery_schedule(build_scheme(res, 2, 9), range(1, 10))
        store = make_file_store(9, 18, 0)
        lines = payload_hex_dump(schedule, encode_payloads(schedule, store))
        assert len(lines) == 9
        assert lines[0].startswith("classes=1,2 pairs=1-2;4-5 s=1: ")


class TestAgainstOracles:
    @pytest.mark.parametrize("spec, z", list(_oracle_points()))
    def test_payloads_and_participation_match_brute_force(self, spec, z):
        res = from_spec(spec)
        v = res.design.v
        n_users = build_scheme(res, z, 1).n_users
        cases = [
            (n_users, range(1, n_users + 1), 2 * v),  # distinct demands, even split
            (n_users, range(1, n_users + 1), 2 * v + 3),  # uneven file length
            (3, [uid % 3 + 1 for uid in range(n_users)], 2 * v - 1),  # repeated demands
        ]
        for n_files, demands, file_len in cases:
            schedule = build_delivery_schedule(build_scheme(res, z, n_files), demands)
            store = make_file_store(n_files, file_len, seed=z)
            assert encode_payloads(schedule, store) == int_xor_payloads(schedule, store)
        for uid in range(n_users):
            assert list(schedule.participation[uid]) == scan_participation(schedule, uid)

    def test_decoding_every_user_walks_the_schedule_at_most_once(self):
        res = affine_plane(4)
        scheme = build_scheme(res, 2, 160)
        built = build_delivery_schedule(scheme, range(1, 161))
        store = make_file_store(160, 50, 6)
        caches = build_caches(store, res)
        payloads = encode_payloads(built, store)
        counted = CountingTuple(built.transmissions)
        schedule = DeliverySchedule(scheme=scheme, demands=built.demands, transmissions=counted)
        for uid in range(scheme.n_users):
            demand = schedule.demands[uid]
            data, _, n_air = decode_user(uid, payloads, schedule, caches, demand, 50)
            assert data == store.files[demand - 1]
            assert n_air == scheme.mu_z * (res.b_r - 1) ** 2
        assert counted.iterations <= 1


class TestCacheViews:
    def test_views_over_each_block(self):
        res = catalog_example(9)
        design = res.design
        store = make_file_store(5, 37, 2)
        sub = subfile_length(37, design.v)
        subs = [split_subfiles(f, design.v) for f in store.files]
        caches = build_caches(store, res)
        assert len(caches) == design.b
        for block, cache in zip(design.blocks, caches):
            assert isinstance(cache, CacheView)
            assert len(cache) == 5 * design.k
            assert set(cache) == {(i, p) for i in range(1, 6) for p in block}
            for (i, p), value in cache.items():
                assert len(value) == sub
                assert value == subs[i - 1][p - 1]
            outside = min(set(range(1, design.v + 1)) - block)
            assert (1, outside) not in cache
            with pytest.raises(KeyError):
                cache[(1, outside)]
            with pytest.raises(KeyError):
                cache[(6, min(block))]
            with pytest.raises(TypeError):
                cache[(1, min(block))] = b"x" * sub

    def test_one_read_only_library_per_v(self):
        res = catalog_example(9)
        store = make_file_store(5, 37, 2)
        library = store.library(res.design.v)
        assert library.shape == (5, res.design.v, subfile_length(37, res.design.v))
        assert not library.flags.writeable
        assert store.library(res.design.v) is library
        assert all(cache.library is library for cache in build_caches(store, res))
        assert store == make_file_store(5, 37, 2)


class TestEndToEnd:
    def test_two_class_design(self):
        report = verify_all(catalog_example(3), 2, 9, 9 * 16, seed=5)
        assert report.all_recovered
        assert report.transmissions_sent == 9
        assert report.measured_rate == report.theoretical_rate == 1

    def test_cache_air_split(self):
        report = verify_all(catalog_example(4), 3, 8, 8 * 16, seed=2)
        for u in report.users:
            assert (u.subfiles_from_cache, u.subfiles_from_air) == (7, 1)
        report9 = verify_all(catalog_example(9), 2, 24, 4 * 16, seed=2)
        for u in report9.users:
            assert (u.subfiles_from_cache, u.subfiles_from_air) == (12, 4)

    def test_equal_demands_still_decode(self):
        res = catalog_example(3)
        report = verify_all(res, 2, 2, 50, seed=1, demands=[1] * 9)
        assert report.all_recovered
        assert all(u.demand == 1 for u in report.users)

    def test_uneven_length(self):
        # file length not divisible by v exercises the padding path
        report = verify_all(catalog_example(1), 2, 12, 13, seed=9)
        assert report.all_recovered

    def test_distinct_needs_enough_files(self):
        with pytest.raises(errors.DemandOutOfRange):
            verify_all(catalog_example(3), 2, 8, 18)

    def test_report_json(self):
        report = verify_all(catalog_example(5), 2, 4, 24, seed=0)
        obj = report_to_json(report)
        assert obj["all_recovered"] is True
        assert obj["measured_rate"] == "1/4"
        assert len(obj["users"]) == 4
        assert obj["users"][0]["user"] == 1
        json.dumps(obj)

    @settings(max_examples=20, deadline=None)
    @given(
        demands=st.lists(st.integers(1, 5), min_size=12, max_size=12),
        file_len=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_demands_recover(self, demands, file_len, seed):
        report = verify_all(affine_plane(2), 2, 5, file_len, seed, demands)
        assert report.all_recovered


class TestDecoderFaults:
    def _schedule(self):
        res = catalog_example(3)
        scheme = build_scheme(res, 2, 9)
        schedule = build_delivery_schedule(scheme, range(1, 10))
        store = make_file_store(9, 36, 4)
        return res, schedule, store

    def test_corrupted_payload_detected(self):
        res, schedule, store = self._schedule()
        caches = build_caches(store, res)
        payloads = encode_payloads(schedule, store)
        victim = schedule.transmissions[0].terms[0][0]
        tampered = list(payloads)
        tampered[0] = bytes([tampered[0][0] ^ 0xFF]) + tampered[0][1:]
        data, _, _ = decode_user(victim, tampered, schedule, caches, victim + 1, 36)
        assert data != store.files[victim]  # demand of user uid is uid+1

    def test_foreign_side_information_raises(self):
        res, schedule, store = self._schedule()
        caches = build_caches(store, res)
        payloads = encode_payloads(schedule, store)
        first = schedule.transmissions[0]
        # hand user 0 a term whose subfile (9) it cannot read
        doctored = CodedTransmission(
            classes=first.classes,
            pairs=first.pairs,
            s=first.s,
            terms=((0, 5), (1, 9)) + first.terms[2:],
        )
        broken = DeliverySchedule(
            scheme=schedule.scheme,
            demands=schedule.demands,
            transmissions=(doctored,) + schedule.transmissions[1:],
        )
        with pytest.raises(errors.MissingSideInformation):
            decode_user(0, payloads, broken, caches, 1, 36)

    def test_missing_transmission_is_incomplete(self):
        res, schedule, store = self._schedule()
        caches = build_caches(store, res)
        payloads = encode_payloads(schedule, store)
        victim = schedule.transmissions[0].terms[0][0]
        clipped = DeliverySchedule(
            scheme=schedule.scheme,
            demands=schedule.demands,
            transmissions=schedule.transmissions[1:],
        )
        with pytest.raises(errors.IncompleteRecovery):
            decode_user(victim, payloads[1:], clipped, caches, victim + 1, 36)
