"""Workload bodies, their traced decompositions, output checks and work counts.

The untraced body of a sim workload is one ``verify_all`` call per case; the
traced iteration calls the same layers one public function at a time, in
``verify_all``'s order, with a span around each call.  The ``analyze`` body
is the same code traced or not: it only passes a real recorder in place of
the no-op one.  Every closed-form work count is compared with the count
measured on the program's own output, so a drifting counter fails the run.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from crdcache import (
    GF,
    CrdCacheError,
    Resolution,
    build_delivery_schedule,
    build_scheme,
    crd_profile,
    from_spec,
    schedule_to_json,
    scheme_metrics,
    simulator,
)
from crdcache.baselines import (
    analyze_table,
    man_example_table,
    spe_example_table,
    sweep_family,
    z_sweep_table,
)
from crdcache.render import sweep_csv, table_text

import golden
from spans import Span, SpanRecorder, descendants, self_seconds_by_name
from workloads import ANALYZE_DESIGNS, DEFAULT_SEED, SIM_CASES, SWEEPS, SimCase

MB = 1e6


class Checks:
    """Attempted and failed output checks; a failed check never aborts a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def error(self, what: str, exc: CrdCacheError) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least ten samples above it.

    Nearest-rank.  With eleven samples or fewer that is p0 or nothing, so
    the maximum is returned under the label p100 instead.
    """
    n = len(values)
    pct = 100 * (n - 10) // n if n > 10 else 0
    ordered = sorted(values)
    if pct <= 0:
        return 100, ordered[-1]
    return pct, ordered[-(-pct * n // 100) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --- sim workloads -----------------------------------------------------------


@dataclass(frozen=True)
class SimTarget:
    """A sim case with its design built and its closed forms worked out."""

    case: SimCase
    res: Resolution
    users: int  # K = scheme_metrics(...).users; also N, since demands are distinct
    rate_v: int  # T = rate * v
    mu: dict
    mu_z: int

    @property
    def air_per_user(self) -> int:
        return self.mu_z * (self.res.b_r - 1) ** self.case.z

    def closed_form(self) -> dict[str, int]:
        res, z, d = self.res, self.case.z, self.res.design
        sub = -(-self.case.file_len // d.v)
        return {
            "v": d.v,
            "K": self.users,
            "T": self.rate_v,
            "terms": self.rate_v * 2**z,
            "sub": sub,
            "library_bytes": self.users * self.case.file_len,
            "cached_bytes": d.b * self.users * d.k * sub,
            "air_subfiles": self.users * self.air_per_user,
            "intersections": sum(comb(res.r, i) * res.b_r**i for i in self.mu),
        }


def prepare_sim(case: SimCase) -> SimTarget:
    res = from_spec(case.spec)
    metrics = scheme_metrics(res, case.z)
    rate_v = metrics.rate * res.design.v
    assert rate_v.denominator == 1, "closed-form transmission count is not an integer"
    mu = dict(crd_profile(res).mu)
    return SimTarget(
        case=case,
        res=res,
        users=metrics.users,
        rate_v=int(rate_v),
        mu=mu,
        mu_z=res.design.k if case.z == 1 else mu[case.z],
    )


def sim_steps(targets: list[SimTarget], seed: int, reports: list) -> Iterator[None]:
    """The timed body, one verify_all per case; yields after each case."""
    for t in targets:
        reports.append(simulator.verify_all(t.res, t.case.z, t.users, t.case.file_len, seed))
        yield


def check_sim_reports(targets: list[SimTarget], reports: list, checks: Checks) -> dict:
    """Per-user and per-run checks of verify_all; returns the measured counts."""
    counts = {}
    for t, rep in zip(targets, reports):
        label = t.case.label
        air = 0
        for u in rep.users:
            checks.check(u.recovered, f"{label}: user {u.user + 1} not recovered")
            checks.check(u.byte_equal, f"{label}: user {u.user + 1} bytes differ")
            checks.check(
                u.subfiles_from_air == t.air_per_user,
                f"{label}: user {u.user + 1} got {u.subfiles_from_air} subfiles from the air,"
                f" expected {t.air_per_user}",
            )
            air += u.subfiles_from_air
        rate = scheme_metrics(t.res, t.case.z).rate
        checks.check(
            rep.measured_rate == rep.theoretical_rate == rate,
            f"{label}: rates measured {rep.measured_rate}, theoretical"
            f" {rep.theoretical_rate}, scheme_metrics {rate}",
        )
        measured = {"v": t.res.design.v, "K": len(rep.users), "T": rep.transmissions_sent,
                    "air_subfiles": air}
        _check_counts(label, measured, t.closed_form(), checks)
        counts[label] = measured
    return counts


def _check_counts(label: str, measured: dict, closed: dict, checks: Checks) -> None:
    for key, value in measured.items():
        checks.check(value == closed[key], f"{label}: {key} measured {value}, closed form {closed[key]}")


def sim_digests(target: SimTarget, seed: int) -> dict[str, str]:
    """Schedule and payload digests of one case (distinct demands 1..K)."""
    case = target.case
    scheme = build_scheme(target.res, case.z, target.users)
    schedule = build_delivery_schedule(scheme, range(1, target.users + 1))
    store = simulator.make_file_store(target.users, case.file_len, seed)
    payloads = simulator.encode_payloads(schedule, store)
    return {
        "schedule_sha256": golden.schedule_digest(schedule_to_json(schedule)),
        "payload_sha256": golden.payload_digest(payloads),
    }


def check_sim_golden(targets: list[SimTarget], gold: dict, checks: Checks) -> None:
    for t in targets:
        label = t.case.label
        try:
            got = sim_digests(t, DEFAULT_SEED)
        except CrdCacheError as exc:
            checks.error(f"{label}: golden digests", exc)
            continue
        want = gold["sim"].get(label, {})
        for key, value in got.items():
            checks.check(value == want.get(key), f"{label}: {key} differs from golden.json")


def traced_sim(targets: list[SimTarget], seed: int, checks: Checks, span: Callable):
    """One traced pass over every case; returns (counts, per-user decode ms)."""
    totals: dict[str, int] = {}
    decode_ms: list[float] = []
    for t in targets:
        case, z, n = t.case, t.case.z, t.users
        label = case.label
        try:
            with span("constructions.from_spec"):
                res = from_spec(case.spec)
            with span("designs.crd_profile"):
                profile = crd_profile(res)
            with span("body"):
                with span("scheme.build_scheme"):
                    scheme = build_scheme(res, z, n)
                with span("scheme.build_delivery_schedule"):
                    schedule = build_delivery_schedule(scheme, range(1, scheme.n_users + 1))
                with span("simulator.check_side_information_sets"):
                    simulator._check_side_information_sets(schedule)
                with span("simulator.make_file_store"):
                    store = simulator.make_file_store(n, case.file_len, seed)
                with span("simulator.build_caches"):
                    caches = simulator.build_caches(store, res)
                with span("simulator.encode_payloads"):
                    payloads = simulator.encode_payloads(schedule, store)
                air = 0
                for uid in range(scheme.n_users):
                    demand = schedule.demands[uid]
                    with span("simulator.decode_user") as sp:
                        data, _, n_air = simulator.decode_user(
                            uid, payloads, schedule, caches, demand, case.file_len
                        )
                    with span("simulator.compare"):
                        equal = data == store.files[demand - 1]
                    decode_ms.append(sp.duration_ns / 1e6)
                    checks.check(equal, f"{label}: user {uid + 1} bytes differ (traced)")
                    checks.check(
                        n_air == t.air_per_user,
                        f"{label}: user {uid + 1} got {n_air} subfiles from the air (traced)",
                    )
                    air += n_air
            with span("scheme.scheme_metrics"):
                metrics = scheme_metrics(res, z)
        except CrdCacheError as exc:
            checks.error(f"{label}: traced pipeline", exc)
            continue
        checks.check(dict(profile.mu) == t.mu, f"{label}: mu profile changed (traced)")
        checks.check(
            len(payloads) == metrics.rate * res.design.v,
            f"{label}: {len(payloads)} payloads but rate*v = {metrics.rate * res.design.v}",
        )
        measured = {
            "v": res.design.v,
            "K": scheme.n_users,
            "T": len(schedule.transmissions),
            "terms": sum(len(tr.terms) for tr in schedule.transmissions),
            "sub": len(payloads[0]),
            "library_bytes": sum(len(f) for f in store.files),
            "cached_bytes": sum(len(b) for cache in caches for b in cache.values()),
            "air_subfiles": air,
        }
        closed = t.closed_form()
        _check_counts(label, measured, closed, checks)
        measured["intersections"] = closed["intersections"]
        for key, value in measured.items():
            totals[key] = totals.get(key, 0) + value
        del store, caches, payloads, schedule, scheme
    return totals, decode_ms


# --- analyze workload --------------------------------------------------------


def build_analyze_designs() -> list[tuple[str, Resolution]]:
    return [(spec, from_spec(spec)) for spec in ANALYZE_DESIGNS]


def _no_span(name: str):
    return nullcontext()


def analyze_steps(
    designs: list[tuple[str, Resolution]],
    profiles: dict[str, dict[int, int]],
    outputs: dict[str, str],
    span: Callable = _no_span,
) -> Iterator[None]:
    """Profiles, comparison tables at every admissible z, z sweeps, the
    example tables and the family sweeps, all rendered to text.

    Fills ``profiles`` (mu profile per design) and ``outputs`` (rendered
    text per output name); yields after each design, table and family.
    """
    for label, res in designs:
        with span("designs.crd_profile"):
            profile = crd_profile(res)
        profiles[label] = dict(profile.mu)
        for z in [1] + sorted(profile.mu):
            with span("scheme.scheme_metrics"):
                scheme_metrics(res, z)
            with span("baselines.analyze_table"):
                table = analyze_table(res, z)
            with span("render.table_text"):
                outputs[f"analyze {label} z={z}"] = table_text(table)
        with span("baselines.z_sweep_table"):
            table = z_sweep_table(res, label)
        with span("render.table_text"):
            outputs[f"zsweep {label}"] = table_text(table)
        yield
    for name, build in (("examples-man", man_example_table), ("examples-spe", spe_example_table)):
        with span("baselines.example_table"):
            table = build()
        with span("render.table_text"):
            outputs[f"table {name}"] = table_text(table)
        yield
    for family, values in SWEEPS.items():
        with span("baselines.sweep_family"):
            rows = sweep_family(family, list(values))
        with span("render.sweep_csv"):
            outputs[f"sweep {family}"] = sweep_csv(rows)
        yield


def analyze_batch(designs: list[tuple[str, Resolution]], span: Callable = _no_span):
    """The whole batch at once: (mu profile per design, rendered text per output name)."""
    profiles: dict[str, dict[int, int]] = {}
    outputs: dict[str, str] = {}
    for _ in analyze_steps(designs, profiles, outputs, span):
        pass
    return profiles, outputs


def seeded_order(designs: list, seed: int) -> list:
    """The batch visits designs in a seed-dependent order; outputs are keyed by name."""
    order = list(designs)
    random.Random(seed).shuffle(order)
    return order


def check_analyze(designs: list, profiles: dict, outputs: dict, gold: dict, checks: Checks) -> dict:
    """Golden profile and digest checks; returns the batch's work counts."""
    want = gold["analyze"]
    for label, mu in profiles.items():
        expected = {int(i): m for i, m in want["profiles"].get(label, {}).items()}
        checks.check(mu == expected, f"{label}: mu profile {mu} != golden {expected}")
    for name in sorted(set(outputs) | set(want["outputs"])):
        text = outputs.get(name)
        checks.check(
            text is not None and golden.text_digest(text) == want["outputs"].get(name),
            f"rendered output {name!r} differs from golden.json",
        )
    return {
        "designs": len(profiles),
        "scheme_points": sum(1 + len(mu) for mu in profiles.values()),
        "intersections": sum(
            comb(res.r, i) * res.b_r**i for label, res in designs for i in profiles[label]
        ),
        "outputs": len(outputs),
        "render_chars": sum(len(t) for t in outputs.values()),
    }


def traced_analyze(seed: int, gold: dict, checks: Checks, span: Callable) -> dict:
    designs = []
    for spec in ANALYZE_DESIGNS:
        with span("constructions.from_spec"):
            designs.append((spec, from_spec(spec)))
    try:
        with span("body"):
            profiles, outputs = analyze_batch(seeded_order(designs, seed), span)
    except CrdCacheError as exc:
        checks.error("analyze batch (traced)", exc)
        return {}
    return check_analyze(designs, profiles, outputs, gold, checks)


# --- per-layer metrics -------------------------------------------------------


def gf_mul_ns(repeats: int = 5) -> float:
    """Median ns per public GF.mul call over all pairs of GF(25) and GF(27)."""
    fields = [GF(25), GF(27)]
    calls = sum(f.q * f.q for f in fields)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for f in fields:
            mul = f.mul
            for a in range(f.q):
                for b in range(f.q):
                    mul(a, b)
        samples.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(samples)


def stage_seconds(spans: list[Span]) -> float:
    """Total duration of the spans directly under each ``body`` span."""
    bodies = {s.id for s in spans if s.name == "body"}
    return sum(s.duration_ns for s in spans if s.parent in bodies) / 1e9


def layer_metrics(spans: list[Span], counts: dict, decode_ms: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from span self times and counts.

    A stage the workload never calls reads 0, as do ratios over a zero count.
    """
    st = self_seconds_by_name(spans)
    own = lambda *names: sum(st.get(n, 0.0) for n in names)  # noqa: E731
    c = lambda key: counts.get(key, 0)  # noqa: E731
    profile_s = own("designs.crd_profile")
    schedule_s = own("scheme.build_delivery_schedule")
    encode_s = own("simulator.encode_payloads")
    decode_s = own("simulator.decode_user")
    encode_mb = c("terms") * c("sub") / MB
    p50 = statistics.median(decode_ms) if decode_ms else 0.0
    tail = tail_percentile(decode_ms)[1] if decode_ms else 0.0
    return {
        "constructions.build_s": own("constructions.from_spec"),
        "designs.profile_s": profile_s,
        "designs.intersections": c("intersections"),
        "designs.ns_per_intersection": _ratio(profile_s * 1e9, c("intersections")),
        "scheme.metrics_s": own("scheme.scheme_metrics"),
        "scheme.build_s": own("scheme.build_scheme"),
        "scheme.schedule_s": schedule_s,
        "scheme.transmissions": c("T"),
        "scheme.terms": c("terms"),
        "scheme.schedule_ns_per_term": _ratio(schedule_s * 1e9, c("terms")),
        "simulator.side_info_s": own("simulator.check_side_information_sets"),
        "simulator.store_s": own("simulator.make_file_store"),
        "simulator.library_mb": c("library_bytes") / MB,
        "simulator.place_s": own("simulator.build_caches"),
        "simulator.cached_mb": c("cached_bytes") / MB,
        "simulator.encode_s": encode_s,
        "simulator.encode_mb": encode_mb,
        "simulator.encode_mb_per_s": _ratio(encode_mb, encode_s),
        "simulator.decode_s": decode_s,
        "simulator.decode_user_p50_ms": p50,
        "simulator.decode_user_tail_ms": tail,
        "simulator.air_subfiles": c("air_subfiles"),
        "simulator.decode_ns_per_air_subfile": _ratio(decode_s * 1e9, c("air_subfiles")),
        "baselines.tables_s": own(
            "baselines.analyze_table", "baselines.z_sweep_table", "baselines.example_table"
        ),
        "baselines.sweep_s": own("baselines.sweep_family"),
        "render.s": own("render.table_text", "render.sweep_csv"),
        "render.chars": c("render_chars"),
    }


# --- the measuring loops -----------------------------------------------------


class Workload:
    """One workload's untraced body, its checks and its traced iteration."""

    def __init__(self, name: str, seed: int, gold: dict):
        self.name = name
        self.seed = seed
        self.gold = gold
        self.checks = Checks()
        self.counts: dict = {}
        if name == "analyze":
            self.designs = seeded_order(build_analyze_designs(), seed)
            self.closed_form = {}
        else:
            self.targets = [prepare_sim(case) for case in SIM_CASES[name]]
            self.closed_form = {t.case.label: t.closed_form() for t in self.targets}
            check_sim_golden(self.targets, gold, self.checks)

    @property
    def is_sim(self) -> bool:
        return self.name != "analyze"

    def verified_bytes(self) -> int:
        """Bytes one body call reconstructs and compares (K * file_len per case)."""
        if not self.is_sim:
            return 0
        return sum(t.users * t.case.file_len for t in self.targets)

    def untraced_sample(
        self, after_step: Callable[[float], float] = lambda dt: 0.0
    ) -> tuple[float, float] | None:
        """(seconds, relative time) of one body, or None if it raised.

        The body is timed step by step (a sim case, an analyze design, table
        or family); ``after_step(dt)`` runs untimed after every step and
        returns that step's relative time, which are summed.
        """
        gc.collect()
        if self.is_sim:
            reports: list = []
            steps = sim_steps(self.targets, self.seed, reports)
        else:
            profiles: dict = {}
            outputs: dict = {}
            steps = analyze_steps(self.designs, profiles, outputs)
        wall = rel = 0.0
        try:
            t0 = time.perf_counter()
            for _ in steps:
                dt = time.perf_counter() - t0
                wall += dt
                rel += after_step(dt)
                t0 = time.perf_counter()
        except CrdCacheError as exc:
            self.checks.error("verify_all" if self.is_sim else "analyze batch", exc)
            return None
        if self.is_sim:
            self.counts = check_sim_reports(self.targets, reports, self.checks)
        else:
            self.counts = check_analyze(self.designs, profiles, outputs, self.gold, self.checks)
        return wall, rel

    def traced_iteration(self, rec: SpanRecorder) -> tuple[dict[str, float], float]:
        """(per-layer metrics, summed stage seconds) of one traced pass."""
        gc.collect()
        with rec.span("iteration") as root:
            if self.is_sim:
                counts, decode_ms = traced_sim(self.targets, self.seed, self.checks, rec.span)
            else:
                counts = traced_analyze(self.seed, self.gold, self.checks, rec.span)
                decode_ms = []
        self.counts = counts
        spans = descendants(rec.spans, root.id)
        return layer_metrics(spans, counts, decode_ms), stage_seconds(spans)


def run_samples(sample: Callable[[], float | None], seconds: float) -> list[float]:
    """Call ``sample`` until another call would end past ``seconds``; at least once.

    Returns the values ``sample`` reported (None is skipped); whether another
    call fits is judged by the median wall time of the whole calls so far.
    """
    start = time.perf_counter()
    taken: list[float] = []
    steps: list[float] = []
    while True:
        t0 = time.perf_counter()
        dt = sample()
        if dt is not None:
            taken.append(dt)
        steps.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(steps) > seconds:
            return taken
