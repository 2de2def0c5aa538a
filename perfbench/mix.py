"""The ``service_mix`` workload: a fixed request pool, a seeded stream
over it, and the closed-loop clients that send the stream to a daemon.

The pool does not depend on the seed, so every pool entry has one stored
reference answer.  The seed decides only which entries are popular and
in what order they are sent.  Popularity is skewed (Zipf) *within* each
request kind, and the share of each kind is fixed, so two seeds send
different keys with the same cost profile: the metrics stay comparable
across seeds while the keys (and so the cache contents) differ.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from workloads import RTOL

#: Entries per request kind.  The three memoized kinds together hold
#: 144 keys against the daemon's 64-entry result memo, so the hot keys
#: fit and the tail does not: misses write and evict.
POOL_SIZES = {"dc": 48, "mc": 48, "tm": 48, "shard": 12}
#: Share of each kind in the stream.  An assumption: the repository has
#: no record of service traffic to fit it to.  The memoized kinds get
#: comparable shares so that every engine path contributes misses;
#: ``/shard`` calls come only from clients fanning out Monte-Carlo, so
#: they get a smaller one.
KIND_SHARE = {"dc": 0.30, "mc": 0.25, "tm": 0.30, "shard": 0.15}
#: Zipf exponent of the popularity of the keys within one kind.  An
#: assumption: the classic Zipf law.  Web-cache traces fit exponents of
#: 0.64-0.83 (Breslau et al., INFOCOM 1999), so this is somewhat more
#: skewed, i.e. cache-friendly, than those.
ZIPF_S = 1.0
#: Closed-loop clients, one thread and one connection each: the target
#: machine has 2 CPUs (``nproc`` = 2), so more would measure the
#: scheduler.
CLIENTS = 2
#: Per-request timeout of a client [s]; the slowest miss takes < 1 s.
REQUEST_TIMEOUT_S = 60.0
#: Requests per block of the stream (see :func:`stream`).
BLOCK = 100
#: Monte-Carlo settings of the ``mc`` and ``shard`` entries.
MC_N, MC_CHUNK, MC_T_STOP, MC_DT, MC_SEED = 24, 12, 2e-6, 2e-8, 7


def _rc(api, i: int):
    ckt = api.Circuit("rc_lowpass")
    ckt.add_vsource("VS", "in", "0",
                    wave=api.Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3 * (1.0 + 0.01 * i),
                     sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return ckt


def build_pool(api) -> dict:
    """Label -> request: an ``AnalysisRequest`` for the memoized kinds
    (sent with ``POST /run``), a ``ShardSpec`` for ``shard`` entries
    (``POST /shard``, never memoized)."""
    tech = api.default_technology()
    vout = [api.DcLevel("vout", "out")]
    pool = {}
    for i in range(POOL_SIZES["dc"]):
        ota = api.five_transistor_ota(tech, w_in=4e-6 * (1.0 + 0.02 * i))
        pool[f"dc-{i:02d}"] = api.AnalysisRequest.dc_mismatch(
            ota, {"vos": ("out", "inp")})
    for i in range(POOL_SIZES["mc"]):
        pool[f"mc-{i:02d}"] = api.AnalysisRequest.monte_carlo_transient(
            _rc(api, i), vout, MC_N, MC_T_STOP, MC_DT, seed=MC_SEED,
            chunk_size=MC_CHUNK)
    for i in range(POOL_SIZES["tm"]):
        pool[f"tm-{i:02d}"] = api.AnalysisRequest.transient_mismatch(
            _rc(api, 100 + i), vout, period=1e-6,
            pss_options=api.PssOptions(n_steps=100, settle_periods=2))
    for i in range(POOL_SIZES["shard"]):
        specs = api.mc_transient_shards(
            _rc(api, 200 + i), vout, MC_N, MC_T_STOP, MC_DT,
            seed=MC_SEED, chunk_size=MC_CHUNK)
        for j, spec in enumerate(specs):
            pool[f"shard-{i:02d}.{j}"] = spec
    return pool


def labels_by_kind(labels) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {kind: [] for kind in POOL_SIZES}
    for label in sorted(labels):
        out[label.split("-", 1)[0]].append(label)
    return out


def _allot(credit: np.ndarray, amount: np.ndarray) -> np.ndarray:
    """Whole counts for one block: add *amount* to the running *credit*
    and take its integer part (the fractions carry to the next block)."""
    credit += amount
    counts = np.floor(credit)
    credit -= counts
    return counts.astype(int)


def stream(labels, seed: int, client: int):
    """Endless seeded request stream of one client, as pool labels.

    The popularity ranking of each kind is drawn from *seed* alone, so
    every client agrees on which keys are hot.  The stream is built in
    blocks of ``BLOCK`` requests that hold each kind's share and, within
    a kind, each key's Zipf share, with fractions carried from block to
    block; the order inside a block is shuffled by ``(seed, client)``.
    Sampling the popularity this way instead of drawing each request
    independently keeps the number of cache misses - the expensive
    requests - from varying from run to run by chance.
    """
    kinds = labels_by_kind(labels)
    names = sorted(kinds)
    rank_rng = np.random.default_rng(seed)
    ranked = {k: [kinds[k][i] for i in rank_rng.permutation(len(kinds[k]))]
              for k in names}
    rng = np.random.default_rng([seed, client])
    zipf, credit = {}, {}
    for k in names:
        w = 1.0 / np.arange(1, len(ranked[k]) + 1) ** ZIPF_S
        zipf[k] = w / w.sum()
        credit[k] = rng.random(len(w))
    share = np.array([KIND_SHARE[k] for k in names])
    kind_credit = rng.random(len(names))
    while True:
        block = []
        for k, n in zip(names, _allot(kind_credit, BLOCK * share)):
            for label, count in zip(ranked[k], _allot(credit[k],
                                                      n * zipf[k])):
                block.extend([label] * count)
        rng.shuffle(block)
        yield from block


def answer(label: str, reply) -> dict:
    """The checkable part of one reply: the summary without its timing
    fields for ``/run``, the samples for ``/shard``."""
    if label.startswith("shard-"):
        return {"samples": {name: [float(v) for v in vals]
                            for name, vals in reply.samples.items()},
                "n_failed": reply.n_failed}
    summary = dict(reply.summary)
    summary.pop("runtime_breakdown", None)
    return {"key": reply.request_key, "summary": summary}


def _close_tree(got, want, errors: list, where: str) -> None:
    """Compare JSON trees: floats to ``RTOL`` relative, the rest
    exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            errors.append(f"{where}: keys differ")
            return
        for k in want:
            _close_tree(got[k], want[k], errors, f"{where}.{k}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{where}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _close_tree(g, w, errors, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        if not abs(got - want) <= RTOL * abs(want):
            errors.append(f"{where} = {got!r}, reference {want!r}")
    elif got != want:
        errors.append(f"{where} = {got!r}, reference {want!r}")


def check(label: str, got: dict, ref: dict) -> list[str]:
    """Differences of one reply from the stored reference: shard samples
    bit-identical, summary numbers within ``RTOL``, keys exact."""
    errors: list[str] = []
    if label.startswith("shard-"):
        if got != ref:
            errors.append(f"{label}: shard samples differ from reference")
        return errors
    _close_tree(got, ref, errors, label)
    return errors


class ClosedLoop:
    """Clients that each send their next request only after the previous
    reply arrived, until a deadline.  :meth:`run` may be called again:
    each client's stream and connection carry on where it stopped."""

    def __init__(self, api, url: str, pool: dict, seed: int):
        self.pool = pool
        #: ``(session, label stream)`` of each client.
        self._clients = [(api.RemoteSession(url, timeout=REQUEST_TIMEOUT_S),
                          stream(pool, seed, index))
                         for index in range(CLIENTS)]
        #: One record per request: ``(label, latency_s, ok, from_cache,
        #: runtime_seconds, answer or error text)``.
        self.records: list[tuple] = []
        self._lock = threading.Lock()

    def _client(self, index: int, deadline: float) -> None:
        session, labels = self._clients[index]
        local = []
        while time.perf_counter() < deadline:
            label = next(labels)
            request = self.pool[label]
            start = time.perf_counter()
            try:
                if label.startswith("shard-"):
                    reply = session.run_shard(request)
                else:
                    reply = session.run(request)
            except Exception as exc:   # counted as a failed request
                local.append((label, time.perf_counter() - start, False,
                              False, 0.0, f"{type(exc).__name__}: {exc}"))
                continue
            latency = time.perf_counter() - start
            local.append((label, latency, True,
                          bool(getattr(reply, "from_cache", False)),
                          float(getattr(reply, "runtime_seconds", 0.0)),
                          answer(label, reply)))
        with self._lock:
            self.records.extend(local)

    def run(self, seconds: float) -> float:
        """Drive the clients for *seconds*; returns the loop's wall."""
        deadline = time.perf_counter() + seconds
        start = time.perf_counter()
        threads = [threading.Thread(target=self._client,
                                    args=(i, deadline),
                                    name=f"perfbench-client-{i}")
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start
