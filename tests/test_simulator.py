"""Byte-exact broadcast: stores, caches, payloads, decoders, reports."""

import hashlib
import json
import pickle
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb
from collections.abc import Sequence
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdcache import caps as caps_module
from crdcache import errors
from crdcache import scheme as scheme_module
from crdcache import simulator
from crdcache.constructions import affine_plane, catalog_example, from_spec
from crdcache.designs import crd_profile, resolution_from_json
from crdcache.scheme import CodedTransmission, build_delivery_schedule, build_scheme, scheme_metrics
from crdcache.simulator import (
    CacheView,
    Payloads,
    SimulationReport,
    UserReport,
    _check_side_information_sets,
    _side_information_pass,
    build_caches,
    decode_user,
    encode_payloads,
    make_file_store,
    payload_hex_dump,
    report_to_json,
    subfile_length,
    verify_all,
)
from oracles import (
    block_set,
    int_xor_payloads,
    scan_delivery_verdict,
    scan_participation,
    scan_side_information_sets,
    split_subfiles,
)

RANDOM_DEMAND_SPECS = ("affine:n=2", "example:4", "example:5", "example:8", "example:9", "hadamard:m=2")

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


@lru_cache(maxsize=None)
def _oracle_schedule(spec, z):
    scheme = build_scheme(from_spec(spec), z, 1)
    return build_delivery_schedule(scheme, [1] * scheme.n_users)


def _raised(check, schedule):
    """The InternalMuMismatch message of check(schedule), or None if it passes."""
    try:
        check(schedule)
    except errors.InternalMuMismatch as exc:
        return str(exc)
    return None


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

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.one_of(
            st.just(0),
            st.integers(-(2**70), -1),
            st.integers(1, 2**32 - 1),
            st.integers(2**32, 2**64),
            st.integers(2**64 + 1, 2**80),
        ),
        n_files=st.integers(1, 6),
        file_len=st.integers(1, 70),
        vs=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        chunk_bytes=st.sampled_from([8, 16, 40, 96, caps_module.WORK_BYTES]),
        files_first=st.booleans(),
    )
    def test_files_are_the_randbytes_stream(self, seed, n_files, file_len, vs, chunk_bytes, files_first):
        """File i is the i-th randbytes(file_len) of random.Random(seed) for
        every chunk size of the generator (8 bytes is one word per chunk, so
        the stream crosses chunk boundaries inside files and between them)."""
        rng = random.Random(seed)
        expected = [rng.randbytes(file_len) for _ in range(n_files)]
        store = make_file_store(n_files, file_len, seed)
        with mock.patch.object(caps_module, "WORK_BYTES", chunk_bytes):
            if files_first:
                store.files
            libraries = [store.library(v) for v in vs]
        assert all(type(f) is memoryview and f.readonly for f in store.files)
        assert list(store.files) == expected
        assert [len(f) for f in store.files] == [file_len] * n_files
        for v, lib in zip(vs, libraries):
            rows = lib.reshape(n_files, -1)
            assert not rows[:, file_len:].any()
            split = b"".join(b"".join(split_subfiles(data, v)) for data in expected)
            assert lib.tobytes() == split

    def test_stream_crosses_the_default_chunk(self):
        # one file's stream spans two generation chunks of the real size
        file_len = caps_module.WORK_BYTES // 2 + 3
        rng = random.Random(5)
        expected = [rng.randbytes(file_len) for _ in range(2)]
        assert list(make_file_store(2, file_len, 5).files) == expected

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.one_of(st.just(0), st.integers(-(2**70), -1), st.integers(1, 2**80)),
        file_len=st.integers(1, 70),
        chunk_bytes=st.sampled_from([8, 16, 40, 96, caps_module.WORK_BYTES]),
        library_first=st.booleans(),
        data=st.data(),
    )
    def test_term_subfiles_are_the_randbytes_subfiles(self, seed, file_len, chunk_bytes, library_first, data):
        """``table[index]`` holds each term's subfile of the randbytes oracle, for
        random schedules with distinct and repeated demands (terms sharing a
        key), for every chunk size of the generator (8 bytes is one word per
        chunk, so pieces end inside subfiles and inside files), and whether
        the library is built first.  If it is, or if it fits in one chunk, the
        table is the library's rows in place and the index is the keys; else
        the table holds only the term subfiles, streamed."""
        res = from_spec(data.draw(st.sampled_from(ORACLE_SPECS), label="spec"))
        z = data.draw(st.sampled_from([1] + sorted(crd_profile(res).mu)), label="z")
        n_users = scheme_metrics(res, z).users
        n_files = data.draw(st.integers(1, n_users + 2), label="files")
        if n_files >= n_users and data.draw(st.booleans(), label="distinct"):
            demands = None
        else:
            demands = data.draw(st.lists(st.integers(1, n_files), min_size=n_users, max_size=n_users))
        schedule = build_delivery_schedule(build_scheme(res, z, n_files), demands)
        v = res.design.v
        rng = random.Random(seed)
        subs = [split_subfiles(rng.randbytes(file_len), v) for _ in range(n_files)]
        expected = [
            [subs[schedule.demands[u] - 1][p - 1] for u, p in zip(users, points)]
            for users, points in zip(schedule.users.tolist(), schedule.subfiles.tolist())
        ]
        store = make_file_store(n_files, file_len, seed)
        with mock.patch.object(caps_module, "WORK_BYTES", chunk_bytes):
            if library_first:
                store.library(v)
            table, index = store.term_subfiles(schedule)
        assert table.dtype == np.uint8 and table.shape[1] == subfile_length(file_len, v)
        assert index.dtype == np.int32 and index.shape == schedule.users.shape
        assert not table.flags.writeable and not index.flags.writeable
        assert [[row.tobytes() for row in rows] for rows in table[index]] == expected
        again = store.term_subfiles(schedule)  # memoized for the last schedule
        assert again[0] is table and again[1] is index
        whole = n_files * v * subfile_length(file_len, v) <= chunk_bytes
        if library_first or whole:
            assert np.shares_memory(table, store.library(v))
            assert np.array_equal(index, schedule.term_keys())
        else:
            assert store._libraries == {}
            assert len(table) == len(np.unique(schedule.term_keys()))

    def test_term_subfiles_stream_crosses_the_default_chunk(self):
        # each file's stream spans two generation chunks of the real size; file
        # 1 is read only by user 1, whose air subfiles skip some points and
        # include the one straddling the boundary between the chunks
        res, file_len = catalog_example(3), caps_module.WORK_BYTES // 2 + 3
        v = res.design.v
        sub = subfile_length(file_len, v)
        boundary = caps_module.WORK_BYTES // 2  # file bytes of one chunk of outputs
        straddling = boundary // sub
        assert straddling * sub < boundary < (straddling + 1) * sub
        scheme = build_scheme(res, 2, 2)
        schedule = build_delivery_schedule(scheme, [1] + [2] * (scheme.n_users - 1))
        keys = schedule.term_keys()
        assert straddling in keys and len(np.unique(keys[keys < v])) < v
        table, index = make_file_store(2, file_len, 5).term_subfiles(schedule)
        rng = random.Random(5)
        subs = [split_subfiles(rng.randbytes(file_len), v) for _ in range(2)]
        flat = [piece for pieces in subs for piece in pieces]
        assert all(table[i].tobytes() == flat[k] for i, k in zip(index.ravel(), keys.ravel()))

    def test_term_subfiles_refuse_a_schedule_for_more_files(self):
        schedule = build_delivery_schedule(build_scheme(catalog_example(3), 2, 9))
        with pytest.raises(errors.DemandOutOfRange, match="for 9 files but the store holds 2"):
            encode_payloads(schedule, make_file_store(2, 18, 0))
        assert len(encode_payloads(schedule, make_file_store(12, 18, 0))) == 9

    def test_one_array_in_memory(self):
        """make_file_store plus library(v), v not dividing the file length,
        peaks at about one (N, v * sub) array: no bytes copy of the files and
        no full-size generator temporary."""
        n_files, file_len, v = 4, (1 << 22) + 3, 7
        lib_bytes = n_files * v * subfile_length(file_len, v)
        tracemalloc.start()
        try:
            store = make_file_store(n_files, file_len, 3)
            store.library(v)
            store.files
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * lib_bytes, peak / lib_bytes

    def test_pickles_and_compares_by_its_numbers(self):
        store = make_file_store(3, 20, 4)
        store.library(5)
        # whole 4-byte words: three files are one randbytes call cut in three
        assert store.files[2] == random.Random(4).randbytes(60)[40:]
        clone = pickle.loads(pickle.dumps(store))
        assert clone == store and clone.files == store.files
        assert store != make_file_store(3, 20, 5)


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

    def test_payloads_are_an_array_backed_sequence_of_bytes(self):
        res = catalog_example(9)
        schedule = build_delivery_schedule(build_scheme(res, 3, 32), range(1, 33))
        store = make_file_store(32, 50, 2)
        payloads = encode_payloads(schedule, store)
        expected = int_xor_payloads(schedule, store)
        assert isinstance(payloads, Sequence) and isinstance(payloads, Payloads)
        assert payloads.rows.shape == (len(expected), subfile_length(50, res.design.v))
        assert payloads == expected and expected == payloads and payloads == tuple(expected)
        assert [type(p) for p in payloads] == [bytes] * len(expected)
        assert payloads[-1] == expected[-1] and len(payloads[0]) == len(expected[0])
        clipped = payloads[1:-1]
        assert type(clipped) is Payloads and clipped == expected[1:-1]
        assert payloads != expected[:-1] and payloads != expected[::-1]
        assert (payloads == 5) is False
        digest = hashlib.sha256()
        for payload in payloads:
            digest.update(payload)
        assert digest.digest() == hashlib.sha256(b"".join(expected)).digest()
        # the benchmark's negative control: rewrite row 0 with its first byte flipped
        payloads[0] = bytes([payloads[0][0] ^ 0xFF]) + payloads[0][1:]
        assert payloads.rows[0, 0] == expected[0][0] ^ 0xFF
        assert payloads[0][1:] == expected[0][1:] and payloads != expected
        assert clipped == expected[1:-1]

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
        terms, bounds = schedule.participation
        gain = schedule.users.shape[1]
        for uid in range(n_users):
            mine = terms[bounds[uid] : bounds[uid + 1]].tolist()
            rows = [(p // gain, int(schedule.subfiles.flat[p])) for p in mine]
            assert rows == scan_participation(schedule, uid)

    def test_verify_all_and_decode_user_build_no_transmission_objects(self, monkeypatch):
        built = []

        class CountingTransmission(CodedTransmission):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scheme_module, "CodedTransmission", CountingTransmission)
        res = affine_plane(5)
        report = verify_all(res, 2, 375, 64, seed=6)
        assert report.all_recovered and report.transmissions_sent == 1500
        assert built == []
        scheme = build_scheme(res, 2, 375)
        schedule = build_delivery_schedule(scheme)
        store = make_file_store(375, 64, 6)
        caches = build_caches(store, res)
        payloads = encode_payloads(schedule, store)
        for uid in range(scheme.n_users):
            demand = schedule.demands[uid]
            data, _, n_air = decode_user(uid, payloads, schedule, caches, demand, 64)
            assert data == store.files[demand - 1]
            assert n_air == scheme.mu_z * (res.b_r - 1) ** 2
        assert built == []
        # the guard sees the objects once something asks for them
        assert len(schedule.transmissions) == len(built) == 1500

    @pytest.mark.parametrize("budget", [1 << 16, 1 << 18])
    def test_side_information_chunk_stays_within_its_budget(self, budget):
        """A check chunk's arrays, all alive at once, fit WORK_BYTES (within
        a quarter for numpy's own temporaries), besides the (W, K) readable
        matrix that every chunk reads."""
        res = from_spec("affine:n=7")
        schedule = build_delivery_schedule(build_scheme(res, 2, 1), [1] * scheme_metrics(res, 2).users)
        readable = -(-res.design.v // 64) * 8 * schedule.scheme.n_users
        assert schedule.users.size * 8 > budget  # its intp users alone take several chunks
        with mock.patch.object(caps_module, "WORK_BYTES", budget):
            _check_side_information_sets(schedule)
            tracemalloc.start()
            try:
                _check_side_information_sets(schedule)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 1.25 * budget + readable, peak / budget

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_side_information_check_matches_the_frozenset_scan(self, data):
        spec, z = data.draw(st.sampled_from([p.values for p in _oracle_points()]))
        schedule = _oracle_schedule(spec, z)
        doctored = schedule.users.copy()
        for _ in range(data.draw(st.integers(0, 3))):
            row = data.draw(st.integers(0, len(doctored) - 1))
            col = data.draw(st.integers(0, doctored.shape[1] - 1))
            doctored[row, col] = data.draw(st.integers(0, schedule.scheme.n_users - 1))
        broken = replace(schedule, users=doctored)
        expected = _raised(scan_side_information_sets, broken)
        # the smallest budgets check one row per chunk
        budget = data.draw(st.sampled_from([1, 64, 512, 4096, caps_module.WORK_BYTES]))
        with mock.patch.object(caps_module, "WORK_BYTES", budget):
            assert _raised(_check_side_information_sets, broken) == expected


def _capture(built, schedule=None):
    """A stand-in for ``simulator._build_schedule`` that appends what
    it returns to ``built``: the real schedule, or a fresh copy of a given one."""
    build = simulator._build_schedule

    def builder(scheme, demands):
        out = build(scheme, demands) if schedule is None else replace(schedule)
        built.append(out)
        return out

    return builder


def _all_unsure(schedule):
    """``_side_information_pass`` that vouches for no user, so that
    ``verify_all`` checks every user one by one."""
    readable, unsure = _side_information_pass(schedule)
    return readable, np.ones_like(unsure)


def _verdict(run):
    """run()'s report, or the type and message of the error it raises."""
    try:
        return run()
    except errors.CrdCacheError as exc:
        return type(exc), str(exc)


# the oracle points with at most 200 users, for schedules doctored term by term
DOCTORED_POINTS = [p.values for p in _oracle_points() if scheme_metrics(from_spec(p.values[0]), p.values[1]).users <= 200]


class TestTransmissionPass:
    """verify_all checks every user inside its side-information pass over the
    transmissions, which marks every user it cannot vouch for; only the
    marked users are checked one by one, and the first to fail in id order
    names the fault the frozenset scan names."""

    @pytest.mark.parametrize(
        "spec, z",
        [("affine:n=5", 2), ("example:9", 4), ("example:4", 1), ("example:8", 3), ("hadamard:m=3", 2), ("affine:n=9", 2)],
    )
    def test_fault_free_run_builds_no_participation(self, monkeypatch, spec, z):
        """Also past one word of points: affine:n=9 has v = 81.  With every
        user marked, each is checked one by one, raises nothing and the
        report stays the same."""
        res = from_spec(spec)
        n_users = scheme_metrics(res, z).users
        built = []
        monkeypatch.setattr(simulator, "_build_schedule", _capture(built))
        report = verify_all(res, z, n_users, 24, seed=5)
        assert report.all_recovered and len(built) == 1
        assert "participation" not in built[0].__dict__
        assert not _side_information_pass(built[0])[1].any()
        monkeypatch.setattr(simulator, "_side_information_pass", _all_unsure)
        assert verify_all(res, z, n_users, 24, seed=5) == report
        assert "participation" in built[1].__dict__

    @pytest.mark.parametrize("budget", [1 << 16, 1 << 18])
    def test_received_scatter_stays_within_its_budget(self, budget):
        """affine:n=9 (v = 81, two words) at z = 2: the scatter of what each
        user receives holds its (K, W) words plus one chunk of WORK_BYTES
        (within a quarter for numpy's own temporaries), where one byte per
        user and point would not fit, and it ORs exactly the terms' points."""
        res = from_spec("affine:n=9")
        schedule = build_delivery_schedule(build_scheme(res, 2, 1), [1] * scheme_metrics(res, 2).users)
        words = -(-res.design.v // 64)
        output = 8 * words * schedule.scheme.n_users
        assert schedule.users.size * 8 > 4 * budget
        assert 64 * words * schedule.scheme.n_users > 1.25 * budget + output
        with mock.patch.object(caps_module, "WORK_BYTES", budget):
            simulator._received(schedule, words)
            tracemalloc.start()
            try:
                got = simulator._received(schedule, words)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 1.25 * budget + output, peak / budget
        points = np.zeros((schedule.scheme.n_users, 64 * words), dtype=bool)
        points[schedule.users, schedule.subfiles - 1] = True
        assert (got == simulator._packed(points[:, : res.design.v])).all()

    def test_point_received_three_times_is_counted_once(self, monkeypatch):
        """Row 4 of example:4 at z = 2 sent twice more: each of its users
        receives its point three times, and three times its bit sums to that
        bit and the next bit up its word, a point that user reads from its
        caches.  The sum then covers every point but is not the union, which
        its popcounts show, so the scatter is redone as an OR: no user is
        marked and each point counts once."""
        res = catalog_example(4)
        n_users = scheme_metrics(res, 2).users
        schedule = build_delivery_schedule(build_scheme(res, 2, n_users))
        again = replace(
            schedule,
            users=np.vstack([schedule.users, schedule.users[[3, 3]]]),
            subfiles=np.vstack([schedule.subfiles, schedule.subfiles[[3, 3]]]),
        )
        readable, unsure = _side_information_pass(again)
        received = simulator._received(again, len(readable))
        points = np.zeros((n_users, 64 * len(readable)), dtype=bool)
        points[again.users, again.subfiles - 1] = True
        assert (received == simulator._packed(points[:, : res.design.v])).all()
        assert np.bitwise_count(received).sum() < again.users.size
        assert not unsure.any()
        run = lambda: verify_all(res, 2, n_users, 36, seed=4)  # noqa: E731
        expected = run()
        built = []
        monkeypatch.setattr(simulator, "_build_schedule", _capture(built, again))
        report = run()
        assert report.transmissions_sent == expected.transmissions_sent + 2
        assert report.users == expected.users
        assert scan_delivery_verdict(again) is None
        assert "participation" not in built[0].__dict__

    def test_descending_row_is_checked_user_by_user(self, monkeypatch):
        """A row listed backwards keeps every side-information set, so the
        pass raises nothing, but it marks that row's users, and they are
        checked one by one: the report is the undoctored one."""
        res = catalog_example(3)
        schedule = build_delivery_schedule(build_scheme(res, 2, 9))
        users, subfiles = schedule.users.copy(), schedule.subfiles.copy()
        users[0], subfiles[0] = users[0, ::-1], subfiles[0, ::-1]
        backwards = replace(schedule, users=users, subfiles=subfiles)
        assert np.flatnonzero(_side_information_pass(backwards)[1]).tolist() == sorted(users[0].tolist())
        assert scan_delivery_verdict(backwards) is None
        expected = verify_all(res, 2, 9, 36, seed=4)
        built = []
        monkeypatch.setattr(simulator, "_build_schedule", _capture(built, backwards))
        assert verify_all(res, 2, 9, 36, seed=4) == expected
        assert "participation" in built[0].__dict__

    def test_row_naming_one_user_twice_raises_what_the_scan_raises(self, monkeypatch):
        """Row 1 of example:3 at z = 2 names users 1, 2, 4 and 5.  Naming user 1
        in the second slot too, on user 1's own subfile, keeps every term's
        subfile in its participant's side-information set, so the membership
        bits alone would pass, although user 1 cannot read the subfile its
        other copy receives.  verify_all raises what the frozenset scan names."""
        res = catalog_example(3)
        schedule = build_delivery_schedule(build_scheme(res, 2, 9))
        users, subfiles = schedule.users.copy(), schedule.subfiles.copy()
        users[0, 1], subfiles[0, 1] = users[0, 0], subfiles[0, 0]
        twice = replace(schedule, users=users, subfiles=subfiles)
        row = twice.transmissions[0]
        for uid, point in row.terms:
            mine = twice.scheme.users[uid]
            sides = [block_set(res, j if mine[c] == i else i) for c, (i, j) in enumerate(row.pairs)]
            assert point in frozenset.intersection(*sides)
        assert subfiles[0, 1] not in set().union(*(block_set(res, j) for j in twice.scheme.users[0]))
        monkeypatch.setattr(simulator, "_build_schedule", _capture([], twice))
        got = _verdict(lambda: verify_all(res, 2, 9, 36, seed=4))
        assert got == scan_delivery_verdict(twice) == (
            errors.InternalMuMismatch,
            "transmission 1: side-information set of user 1 is [5] but the others share [4, 5, 6]",
        )

    @pytest.mark.parametrize(
        "spec, user, fault",
        [
            ("example:3", 0, "transmission 1: user 2 cannot strip subfile 6 of user 1's term"),
            ("affine:n=9", 0, "transmission 1: user 2 cannot strip subfile 20 of user 1's term"),
            ("affine:n=9", 243, "transmission 3889: user 245 cannot strip subfile 74 of user 244's term"),
        ],  # one word of points; two words, in the first and in the second
    )
    def test_swapped_subfiles_of_one_user_fail_only_the_membership_bits(self, monkeypatch, spec, user, fault):
        """A user's subfiles swapped between its first two rows leave every
        side-information set and every point it receives as they were; only
        a membership bit fails, which marks the rows' users, and verify_all
        raises what the frozenset scan names."""
        res = from_spec(spec)
        n_users = scheme_metrics(res, 2).users
        schedule = build_delivery_schedule(build_scheme(res, 2, n_users))
        subfiles = schedule.subfiles.copy()
        first, second = np.flatnonzero(schedule.users == user)[:2]
        subfiles.flat[[first, second]] = subfiles.flat[[second, first]]
        swapped = replace(schedule, subfiles=subfiles)
        rows = schedule.users[[first // 4, second // 4]]
        assert np.flatnonzero(_side_information_pass(swapped)[1]).tolist() == np.unique(rows).tolist()
        monkeypatch.setattr(simulator, "_build_schedule", _capture([], swapped))
        got = _verdict(lambda: verify_all(res, 2, n_users, 36, seed=4))
        assert got == scan_delivery_verdict(swapped) == (errors.MissingSideInformation, fault)

    def test_dropped_row_marks_only_its_users_by_their_gaps(self, monkeypatch):
        """Row 1 of example:3 at z = 2 dropped: every term left strips, so no
        membership bit fails, but each of the row's users misses its point,
        and the first of them in id order names the fault."""
        res = catalog_example(3)
        schedule = build_delivery_schedule(build_scheme(res, 2, 9))
        dropped = replace(schedule, users=schedule.users[1:], subfiles=schedule.subfiles[1:])
        assert not _side_information_pass(dropped)[1].any()
        monkeypatch.setattr(simulator, "_build_schedule", _capture([], dropped))
        got = _verdict(lambda: verify_all(res, 2, 9, 36, seed=4))
        assert got == scan_delivery_verdict(dropped) == (
            errors.IncompleteRecovery,
            "user 1 never obtained subfile 5 of file 1",
        )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_doctored_schedules_match_the_scan(self, data):
        """Schedules with users or subfiles overwritten, two subfiles of one
        user swapped, and rows dropped, reversed or repeated, built through
        the builder: at chunks of one row, a few rows or the default,
        verify_all's error type and message are the first fault the frozenset
        scan names, and where it names none verify_all reports every user
        recovered."""
        spec, z = data.draw(st.sampled_from(DOCTORED_POINTS), label="point")
        res = from_spec(spec)
        n_users, v = scheme_metrics(res, z).users, res.design.v
        n_files = data.draw(st.integers(1, 3), label="files")
        demands = data.draw(st.lists(st.integers(1, n_files), min_size=n_users, max_size=n_users))
        schedule = build_delivery_schedule(build_scheme(res, z, n_files), demands)
        users, subfiles = schedule.users.copy(), schedule.subfiles.copy()
        for _ in range(data.draw(st.integers(0, 3), label="edits") if len(users) else 0):
            edit = data.draw(st.sampled_from(["users", "subfiles", "swap", "drop", "reverse", "repeat"]), label="edit")
            row = data.draw(st.integers(0, len(users) - 1), label="row")
            col = data.draw(st.integers(0, users.shape[1] - 1), label="col")
            if edit == "users":
                users[row, col] = data.draw(st.integers(0, n_users - 1), label="user")
            elif edit == "subfiles":
                subfiles[row, col] = data.draw(st.integers(1, v), label="point")
            elif edit == "swap":  # two subfiles of one user: what it receives stays whole
                mine = np.flatnonzero(users == users[row, col]).tolist()
                if len(mine) > 1:
                    at = data.draw(st.lists(st.sampled_from(mine), min_size=2, max_size=2, unique=True))
                    subfiles.flat[at] = subfiles.flat[at[::-1]]
            elif edit == "reverse":  # every set kept, the users descend
                users[row], subfiles[row] = users[row, ::-1].copy(), subfiles[row, ::-1].copy()
            elif edit == "repeat":  # the row's users receive its points twice
                users, subfiles = np.vstack([users, users[[row]]]), np.vstack([subfiles, subfiles[[row]]])
            elif len(users) > 1:
                users, subfiles = np.delete(users, row, axis=0), np.delete(subfiles, row, axis=0)
        doctored = replace(schedule, users=users, subfiles=subfiles)
        budget = data.draw(st.sampled_from([1, 64, caps_module.WORK_BYTES]), label="budget")
        run = lambda: verify_all(res, z, n_files, 24, seed=3, demands=demands)  # noqa: E731
        with mock.patch.object(caps_module, "WORK_BYTES", budget), mock.patch.object(
            simulator, "_build_schedule", _capture([], doctored)
        ):
            got = _verdict(run)
        expected = scan_delivery_verdict(doctored)
        if expected is None:
            assert isinstance(got, SimulationReport) and got.all_recovered
        else:
            assert got == expected


class TestIsolatedDecoder:
    def test_decode_user_reads_only_its_own_caches(self):
        class Sealed:
            def __getattr__(self, name):
                raise AssertionError(f"decode_user read {name} of a foreign cache")

        res = catalog_example(9)
        scheme = build_scheme(res, 3, 32)
        schedule = build_delivery_schedule(scheme)
        store = make_file_store(32, 64, 1)
        caches = build_caches(store, res)
        payloads = encode_payloads(schedule, store)
        for uid in range(scheme.n_users):
            own = set(scheme.users[uid].tolist())
            isolated = [cache if j in own else Sealed() for j, cache in enumerate(caches)]
            data, n_cache, n_air = decode_user(uid, payloads, schedule, isolated, uid + 1, 64)
            assert data == store.files[uid]
            assert n_cache + n_air == res.design.v
            # a plain list of bytes rows decodes the same
            assert decode_user(uid, list(payloads), schedule, isolated, uid + 1, 64) == (data, n_cache, n_air)

    def test_verify_all_xors_each_term_once_beyond_the_encoding(self, monkeypatch):
        """verify_all's byte work is the encoding plus one residual pass over
        the same T rows: 2 * T * 2^z subfile XORs, whatever K is."""
        xored = []
        gather = simulator._xor_gather

        def counting(acc, table, index):
            xored.append(index.size)
            gather(acc, table, index)

        monkeypatch.setattr(simulator, "_xor_gather", counting)
        for spec, z in [("affine:n=5", 2), ("example:9", 4), ("example:8", 3)]:
            xored.clear()
            report = verify_all(from_spec(spec), z, scheme_metrics(from_spec(spec), z).users, 30, seed=4)
            assert report.all_recovered
            assert sum(xored) == 2 * report.transmissions_sent * 2**z

    def test_user_reports_are_named_tuples_of_python_scalars(self):
        assert UserReport._fields == (
            "user", "demand", "recovered", "byte_equal", "subfiles_from_cache", "subfiles_from_air",
        )
        report = verify_all(catalog_example(3), 2, 9, 18, seed=1)
        assert report.users[0] == UserReport(0, 1, True, True, 5, 4)
        for u in report.users:
            assert type(u) is UserReport
            assert [type(x) for x in u] == [int, int, bool, bool, int, int]


# (spec, z, files): a repeated-demand case draws its demands from 1..files
DIFFERENTIAL_CASES = [
    ("example:3", 2, None),
    ("example:9", 3, None),
    ("example:9", 4, None),
    ("example:4", 1, None),
    ("affine:n=2", 2, 3),
]


class TestResidualAgainstDecoder:
    @pytest.mark.parametrize("tiny_chunks", [False, True], ids=["default", "tiny-chunks"])
    @pytest.mark.parametrize(
        "spec, z, files", DIFFERENTIAL_CASES, ids=[f"{c[0]}-z{c[1]}" for c in DIFFERENTIAL_CASES]
    )
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_flipped_byte_verdicts_match_decode_user(self, spec, z, files, tiny_chunks, data):
        """verify_all's per-row residual marks exactly the users whose real
        decoder output differs from their file, after one payload byte of a
        random row is flipped.  The byte lies in file data for every term of
        the row: a flip that only hits padding fails verify_all (it compares
        padded subfiles) but not the decoder, which cuts the padding off."""
        res = from_spec(spec)
        v = res.design.v
        n_users = scheme_metrics(res, z).users
        n_files = files or n_users
        demands = None
        if files:
            demands = data.draw(st.lists(st.integers(1, files), min_size=n_users, max_size=n_users))
        # every subfile but the last is all file bytes; the last has 1..sub of them
        sub = data.draw(st.integers(1, 4))
        file_len = data.draw(st.integers(v * sub - sub + 1, v * sub))
        assert subfile_length(file_len, v) == sub
        seed = data.draw(st.integers(0, 2**32 - 1))
        schedule = build_delivery_schedule(build_scheme(res, z, n_files), demands)
        row = data.draw(st.integers(0, len(schedule.users) - 1))
        offset = data.draw(st.integers(0, file_len - (v - 1) * sub - 1))
        mask = data.draw(st.integers(1, 255))
        encode = simulator.encode_payloads
        sent = []

        def flip(schedule, store):
            payloads = encode(schedule, store)
            bad = payloads[row]
            payloads[row] = bad[:offset] + bytes([bad[offset] ^ mask]) + bad[offset + 1 :]
            sent.append(payloads)
            return payloads

        # with tiny chunks, one row (one user, one word) per chunk and one row per gather
        budgets = (1, 1) if tiny_chunks else (caps_module.WORK_BYTES, caps_module.CACHE_BYTES)
        budget = mock.patch.multiple(caps_module, WORK_BYTES=budgets[0], CACHE_BYTES=budgets[1])
        with mock.patch.object(simulator, "encode_payloads", flip), budget:
            report = verify_all(res, z, n_files, file_len, seed, demands)
            store = make_file_store(n_files, file_len, seed)
            caches = build_caches(store, res)
            decoded = [
                decode_user(u.user, sent[0], schedule, caches, u.demand, file_len) for u in report.users
            ]
        for u, (data_bytes, n_cache, n_air) in zip(report.users, decoded):
            assert u.byte_equal == (data_bytes == store.files[u.demand - 1])
            assert (u.subfiles_from_cache, u.subfiles_from_air) == (n_cache, n_air)
        failed = {u.user for u in report.users if not u.byte_equal}
        assert failed == set(schedule.users[row].tolist())


class TestCacheViews:
    def test_views_over_each_block(self):
        res = catalog_example(9)
        design = res.design
        store = make_file_store(5, 37, 2)
        sub = subfile_length(37, design.v)
        subs = [split_subfiles(f, design.v) for f in store.files]
        caches = build_caches(store, res)
        assert len(caches) == design.b
        for j, cache in enumerate(caches):
            block = block_set(res, j)
            assert isinstance(cache, CacheView)
            assert len(cache) == 5 * design.k
            assert set(cache) == {(i, p) for i in range(1, 6) for p in block}
            assert list(cache) == sorted(cache)
            assert all(type(i) is int and type(p) is int for i, p in cache)
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

    def test_single_block_classes_send_nothing(self):
        # b_r = 1: no block pairs, so every user reads its whole file from cache
        res = resolution_from_json({"v": 2, "blocks": [[1, 2], [1, 2]], "classes": [[1], [2]]})
        for z in (1, 2):
            scheme = build_scheme(res, z, 1)
            schedule = build_delivery_schedule(scheme, [1] * scheme.n_users)
            assert schedule.users.shape == (0, 2**z) and schedule.transmissions == ()
            report = verify_all(res, z, 1, 8, demands=[1] * scheme.n_users)
            assert report.all_recovered and report.transmissions_sent == 0

    def test_working_set_is_one_decode_batch_over_the_library(self):
        """verify_all on 1 MiB files holds the library plus at most one decode
        batch (WORK_BYTES) and, within another WORK_BYTES, the payload
        round trip (two T*sub copies), a gather chunk and index arrays."""
        res, z, n_files, file_len = catalog_example(8), 3, 27, 1 << 20
        sub = subfile_length(file_len, res.design.v)
        tracemalloc.start()
        try:
            report = verify_all(res, z, n_files, file_len, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_recovered
        assert 2 * report.transmissions_sent * sub + caps_module.CACHE_BYTES < caps_module.WORK_BYTES
        over = peak - n_files * res.design.v * sub
        assert over < 2 * caps_module.WORK_BYTES, over / caps_module.WORK_BYTES

    def test_working_set_is_one_decode_batch_over_the_term_subfiles(self):
        """verify_all on 1 MiB files holds the subfiles the terms read, not the
        library: its traced peak stays under their bytes plus two decode
        batches (WORK_BYTES), which is less than the library's size."""
        res, z, n_files, file_len = catalog_example(8), 3, 27, 1 << 20
        sub = subfile_length(file_len, res.design.v)
        keys = build_delivery_schedule(build_scheme(res, z, n_files)).term_keys()
        bound = len(np.unique(keys)) * sub + 2 * caps_module.WORK_BYTES
        assert bound < n_files * res.design.v * sub
        tracemalloc.start()
        try:
            report = verify_all(res, z, n_files, file_len, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_recovered
        assert peak < bound, (peak, bound)

    def test_default_budget_bounds_the_streamed_term_subfiles(self):
        """example:8 at z = 3 with 4 MiB files at the budget as shipped: the
        store streams the term subfiles and peaks at them and the term index
        plus at most twice the 4 MiB default, not at the 113 MB library."""
        default = 1 << 22
        res, z, n_files, file_len = catalog_example(8), 3, 27, 4 << 20
        schedule = build_delivery_schedule(build_scheme(res, z, n_files))
        keys = schedule.term_keys()
        output = len(np.unique(keys)) * subfile_length(file_len, res.design.v) + keys.nbytes
        store = make_file_store(n_files, file_len, 1)
        tracemalloc.start()
        try:
            store.term_subfiles(schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= output + 2 * default, (peak - output) / default

    def test_encode_after_build_caches_reads_the_library_in_place(self):
        """Once build_caches holds the library, encode_payloads gathers from it
        in place: under tracemalloc it grows by the payloads, the term index
        and one gather chunk, not by a copy of the term subfiles."""
        res, z, n_files, file_len = catalog_example(8), 3, 27, 1 << 20
        sub = subfile_length(file_len, res.design.v)
        schedule = build_delivery_schedule(build_scheme(res, z, n_files))
        store = make_file_store(n_files, file_len, 1)
        build_caches(store, res)
        tracemalloc.start()
        try:
            payloads = encode_payloads(schedule, store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = len(payloads) * sub + caps_module.CACHE_BYTES + 8 * schedule.users.size
        assert peak < bound, (peak, bound)
        assert np.shares_memory(store.term_subfiles(schedule)[0], store.library(res.design.v))

    @pytest.mark.parametrize("gather", [1 << 18, 1 << 19])
    def test_gather_chunk_bounds_the_encoder(self, monkeypatch, gather):
        """With the library held, encode_payloads grows by the payloads, the
        term index and one gathered chunk of at most ``CACHE_BYTES``, where a
        whole gathered column would be the size of the payloads."""
        res, z, n_files, file_len = catalog_example(8), 3, 27, 1 << 20
        sub = subfile_length(file_len, res.design.v)
        schedule = build_delivery_schedule(build_scheme(res, z, n_files))
        store = make_file_store(n_files, file_len, 1)
        build_caches(store, res)
        assert len(schedule.users) * sub > 2 * gather
        monkeypatch.setattr(caps_module, "CACHE_BYTES", gather)
        tracemalloc.start()
        try:
            payloads = encode_payloads(schedule, store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = len(payloads) * sub + 4 * schedule.users.size + gather
        assert peak <= bound, (peak, bound)

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

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(RANDOM_DEMAND_SPECS),
        file_len=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_random_demands_recover(self, spec, file_len, seed, data):
        """Random demands, repeated ones among them (whose terms share keys), on
        small designs at every admissible z: every user recovers its file
        byte for byte, the rate is mu_z C(b_r,2)^z C(r,z) / v and each user
        takes mu_z (b_r-1)^z subfiles from the air (mu_1 := k)."""
        res = from_spec(spec)
        z = data.draw(st.sampled_from([1] + sorted(crd_profile(res).mu)), label="z")
        n_users = scheme_metrics(res, z).users
        n_files = data.draw(st.integers(1, 5), label="files")
        demands = data.draw(st.lists(st.integers(1, n_files), min_size=n_users, max_size=n_users))
        report = verify_all(res, z, n_files, file_len, seed, demands)
        mu_z = res.design.k if z == 1 else crd_profile(res).mu[z]
        rate = Fraction(mu_z * comb(res.b_r, 2) ** z * comb(res.r, z), res.design.v)
        assert report.all_recovered
        assert [u.demand for u in report.users] == demands
        assert report.measured_rate == report.theoretical_rate == rate
        assert [u.subfiles_from_air for u in report.users] == [mu_z * (res.b_r - 1) ** z] * n_users


STAGES = ("scheme", "schedule", "side_info", "store", "encode", "decode_residual", "report_rest")


class TestStageRecord:
    """verify_all times its own stages in ``report.stage_ns``, which neither
    equality, repr nor ``report_to_json`` sees; it refuses a bad store
    before it builds the schedule, and a bad demand vector before both."""

    @pytest.mark.parametrize("all_marked", [False, True])
    def test_stages_in_order_within_the_call(self, monkeypatch, all_marked):
        """Also when every user is checked one by one, which builds the
        participation index inside ``decode_residual``."""
        if all_marked:
            monkeypatch.setattr(simulator, "_side_information_pass", _all_unsure)
        res = from_spec("affine:n=5")
        start = time.perf_counter_ns()
        report = verify_all(res, 2, 375, 32)
        span = time.perf_counter_ns() - start
        assert report.all_recovered
        assert tuple(report.stage_ns) == STAGES
        assert all(type(ns) is int and ns >= 0 for ns in report.stage_ns.values())
        assert sum(report.stage_ns.values()) <= span
        with pytest.raises(TypeError):
            report.stage_ns["scheme"] = 0

    def test_equal_runs_compare_equal_and_serialize_without_it(self):
        res = catalog_example(4)
        one, two = verify_all(res, 2, 12, 40, seed=11), verify_all(res, 2, 12, 40, seed=11)
        assert one == two and repr(one) == repr(two)
        assert "stage" not in repr(one)
        obj = report_to_json(one)
        assert not any("stage" in key for key in obj)
        assert json.dumps(obj) == json.dumps(report_to_json(two))

    def test_bad_file_length_is_refused_before_the_schedule(self, monkeypatch):
        def never(scheme, demands):
            raise AssertionError("the schedule was built")

        monkeypatch.setattr(simulator, "_build_schedule", never)
        with pytest.raises(errors.DemandOutOfRange, match="file_len >= 1"):
            verify_all(from_spec("affine:n=5"), 2, 375, 0)

    @pytest.mark.parametrize(
        "n_files, demands, error",
        [
            (8, None, errors.DemandOutOfRange),  # distinct demands need N >= K = 9
            (9, [1] * 8, errors.BadDemandLength),
            (9, [1] * 8 + [10], errors.DemandOutOfRange),
        ],
    )
    def test_bad_demands_still_come_before_a_bad_file_length(self, n_files, demands, error):
        with pytest.raises(error) as exc:
            verify_all(catalog_example(3), 2, n_files, 0, demands=demands)
        assert "file_len" not in str(exc.value)

    def test_an_explicit_demand_vector_is_checked_once(self, monkeypatch):
        """verify_all checks the vector before the store and builds the
        schedule from the checked tuple, so no second check runs."""
        check, checked = scheme_module.demand_vector, []

        def counted(scheme, demands=None):
            checked.append(demands)
            return check(scheme, demands)

        monkeypatch.setattr(simulator, "demand_vector", counted)
        monkeypatch.setattr(scheme_module, "demand_vector", counted)
        demands = [1] * 8 + [2]
        assert verify_all(catalog_example(3), 2, 9, 24, demands=demands).all_recovered
        assert checked == [demands]


def _no_library(store, v):
    raise AssertionError(f"library({v}) was built")


class TestStreamedStore:
    """encode_payloads and verify_all read only the term subfiles of a library
    above one generator chunk; a 64-byte chunk puts these small ones above it."""

    @pytest.mark.parametrize("spec, z", [("example:3", 2), ("example:8", 3), ("affine:n=3", 2), ("example:4", 1)])
    def test_verify_all_and_encode_payloads_build_no_library(self, monkeypatch, spec, z):
        res = from_spec(spec)
        n_users = scheme_metrics(res, z).users
        schedule = build_delivery_schedule(build_scheme(res, z, n_users))
        expected = int_xor_payloads(schedule, make_file_store(n_users, 45, 2))
        monkeypatch.setattr(simulator.FileStore, "library", _no_library)
        monkeypatch.setattr(caps_module, "WORK_BYTES", 64)
        assert encode_payloads(schedule, make_file_store(n_users, 45, 2)) == expected
        assert verify_all(res, z, n_users, 45, seed=2).all_recovered

    @pytest.mark.parametrize("row", [0, 4, -1])
    def test_flipped_payload_fails_its_participants_without_a_library(self, monkeypatch, row):
        encode = simulator.encode_payloads
        participants = set()

        def flip(schedule, store):
            payloads = encode(schedule, store)
            participants.update(schedule.users[row].tolist())
            payloads[row] = bytes([payloads[row][0] ^ 0xFF]) + payloads[row][1:]
            return payloads

        monkeypatch.setattr(simulator.FileStore, "library", _no_library)
        monkeypatch.setattr(caps_module, "WORK_BYTES", 64)
        monkeypatch.setattr(simulator, "encode_payloads", flip)
        report = verify_all(catalog_example(9), 3, 32, 40, seed=3)
        assert participants
        assert {u.user for u in report.users if not u.byte_equal} == participants
        assert all(u.recovered for u in report.users)


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
        victim = int(schedule.users[0, 0])
        tampered = list(payloads)
        tampered[0] = bytes([tampered[0][0] ^ 0xFF]) + tampered[0][1:]
        data, _, _ = decode_user(victim, tampered, schedule, caches, victim + 1, 36)
        assert data != store.files[victim]  # demand of user uid is uid+1

    @pytest.mark.parametrize("row", [0, 1, -1])
    @pytest.mark.parametrize("tiny_chunks", [False, True], ids=["default", "tiny-chunks"])
    @pytest.mark.parametrize(
        "spec, n_files, demands",
        [("example:3", 9, None), ("affine:n=2", 3, [u % 3 + 1 for u in range(12)])],
        ids=["distinct", "repeated"],
    )
    def test_flipped_payload_byte_fails_exactly_its_participants(
        self, monkeypatch, spec, n_files, demands, tiny_chunks, row
    ):
        if tiny_chunks:  # one row (one user, one word) per chunk and one row per gather
            monkeypatch.setattr(caps_module, "WORK_BYTES", 1)
            monkeypatch.setattr(caps_module, "CACHE_BYTES", 1)
        encode = simulator.encode_payloads
        participants = set()

        def flip(schedule, store):
            payloads = encode(schedule, store)
            participants.update(schedule.users[row].tolist())
            bad = payloads[row]
            payloads[row] = bad[:3] + bytes([bad[3] ^ 0x5A]) + bad[4:]
            return payloads

        monkeypatch.setattr(simulator, "encode_payloads", flip)
        report = verify_all(from_spec(spec), 2, n_files, 40, seed=3, demands=demands)
        assert participants
        assert {u.user for u in report.users if not u.byte_equal} == participants
        assert all(u.recovered for u in report.users) and not report.all_recovered

    @pytest.mark.parametrize(
        "user, demand, error",
        [
            (0, 2, errors.DemandOutOfRange),  # another file of the library
            (0, 0, errors.DemandOutOfRange),
            (0, 10, errors.DemandOutOfRange),
            (9, 1, errors.IndexOutOfRange),
            (-1, 1, errors.IndexOutOfRange),
        ],
    )
    def test_decode_user_rejects_a_user_or_demand_the_schedule_lacks(self, user, demand, error):
        """example:3 at z = 2 has 9 users, and user 1 demands file 1."""
        res, schedule, store = self._schedule()
        caches = build_caches(store, res)
        payloads = encode_payloads(schedule, store)
        with pytest.raises(error):
            decode_user(user, payloads, schedule, caches, demand, 36)

    def test_foreign_side_information_raises(self):
        res, schedule, store = self._schedule()
        caches = build_caches(store, res)
        payloads = encode_payloads(schedule, store)
        # row 1 is u1:5 u2:4 u4:2 u5:1; hand user 1 a term whose subfile (9) it cannot read
        subfiles = schedule.subfiles.copy()
        subfiles[0, 1] = 9
        broken = replace(schedule, subfiles=subfiles)
        with pytest.raises(errors.MissingSideInformation) as exc:
            decode_user(0, payloads, broken, caches, 1, 36)
        assert str(exc.value) == "transmission 1: user 1 cannot strip subfile 9 of user 2's term"

    def test_missing_transmission_is_incomplete(self):
        res, schedule, store = self._schedule()
        caches = build_caches(store, res)
        payloads = encode_payloads(schedule, store)
        victim = int(schedule.users[0, 0])
        clipped = replace(schedule, users=schedule.users[1:], subfiles=schedule.subfiles[1:])
        with pytest.raises(errors.IncompleteRecovery) as exc:
            decode_user(victim, payloads[1:], clipped, caches, victim + 1, 36)
        assert str(exc.value) == "user 1 never obtained subfile 5 of file 1"
