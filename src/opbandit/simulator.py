"""The experiment run loop: reveal load, let the policy pick an arm, draw the
nominal reward, update the policy, accumulate load-weighted regret.

One chunk loop, :func:`_run_rows`, runs every cell: N (policy,
replication) cells of one bandit as N rows, a chunk of steps at a time.
Per chunk, the reward model gives every arm's reward (``reward_rows``), one
step chooses every row's arms, and the regret, pull counts and checkpoints
are accounted from the chosen arms in one pass (:class:`_Ledger`); the
checkpoints are the only recording.  :func:`_route` gives each policy its
step and the fewest of its cells that run as the rows of one run.

A load is read by the regret only where the chosen arm's gap is positive
(``load * 0`` adds nothing), and by the arm choice only if the policy's
class ``reads_loads`` (an object that hides its class is taken to read
them).  A row whose choice reads loads draws them a chunk at a time before
the step; an EAdaUCB row reads them from the running quantiles that hold
its whole run.  Every other row (``ucb``, ``ts``) draws each chunk's loads
after the step, and computes only the charged steps' loads
(:meth:`_Ledger.charged`).  The load stream takes the same uniforms either
way, and an uncharged step's cost is ``0 * gap = +0.0`` instead of
``load * 0 = +0.0``, so the outputs are the same bytes.

:func:`run_once` is a one-row run of the chunk loop, and
:func:`run_experiment` runs every cell that does not batch through it.  One
byte budget, :data:`BATCH_BYTES`, bounds a run's memory twice: a chunk's
arrays, which sets the chunk length (:func:`_chunk_steps`, at most
:data:`CHUNK`), and the loads that EAdaUCB rows hold for the whole run, 14
bytes a step.  Each row keeps its own streams and schedule, so the outputs
depend neither on which path ran nor on the chunk length.  Every cell runs
on a reset copy of its policy: the policies given to :func:`run_experiment`
are not changed.

Regret is expected pseudo-regret: each step adds
``load * (best_mean - mean[chosen])`` using the true arm means, which is the
unbiased low-variance estimator of the load-weighted regret.

Each (policy, replication) pair owns three private random streams (load,
reward, policy) derived from the base seed by label hashing, so replications
can run in any order, replication prefixes are stable under changes to the
replication count, and reseeding rewards never perturbs the load sequence.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from typing import Callable, Iterator

import numpy as np

from .core import (
    BanditInstance,
    RngStream,
    check_checkpoints,
    default_checkpoints,
    derive_stream_id,
    log_steps,
    margin_down,
    margin_up,
)
from .environments import LoadModel, RewardModel
from .policies import IndexPolicy, Policy, RunningQuantiles, ThompsonPolicy

__all__ = [
    "ReplicationTrace",
    "RegretTrace",
    "replication_streams",
    "run_once",
    "run_experiment",
]


@dataclass
class ReplicationTrace:
    """Checkpointed regret and pull counts of a single replication: the
    only recording, so a per-step trace is the trace of the checkpoints
    ``np.arange(1, T + 1)``."""

    checkpoints: np.ndarray  # (C,) int
    regret: np.ndarray  # (C,) cumulative regret at each checkpoint
    pulls: np.ndarray  # (C, K) cumulative pull counts


@dataclass
class RegretTrace:
    """Per-replication regret curves for one policy, with aggregates."""

    policy: str
    checkpoints: np.ndarray  # (C,)
    regret: np.ndarray  # (R, C)
    pulls: np.ndarray  # (R, C, K)

    @property
    def mean_regret(self) -> np.ndarray:
        return self.regret.mean(axis=0)

    @property
    def std_regret(self) -> np.ndarray:
        # sample (n-1) normalization; a single replication has zero spread
        if len(self.regret) < 2:
            return np.zeros(self.regret.shape[1])
        return self.regret.std(axis=0, ddof=1)

    @property
    def mean_pulls(self) -> np.ndarray:
        return self.pulls.mean(axis=0)


def replication_streams(base_seed: int, policy_label: str, replication: int) -> dict:
    """The three private streams of one (policy, replication) cell."""
    return {
        role: RngStream(base_seed, derive_stream_id(policy_label, replication, role))
        for role in ("load", "reward", "policy")
    }


#: the longest chunk of the run loop (:func:`_run_rows`): enough to amortize
#: the numpy calls made per chunk, few enough that no horizon-long Python
#: list is held
CHUNK = 1024

#: the bytes a run of the chunk loop may hold for its rows, twice over: once for
#: a chunk's arrays, which sets the chunk length (:func:`_chunk_steps`), and
#: once for the whole run's loads that its quantile rows (EAdaUCB's) hold:
#: ``run_experiment`` lets such rows into a batch while their loads fit and
#: runs the rest alone.  Longer chunks take fewer Python calls per row.  A
#: quantile row costs less CPU in the batch than alone at every shape
#: measured, so the second use is a memory cap, not a speed crossover.  On a
#: 2-vCPU x86-64 host, fig2b-beta's index cells at T = 1e4 and R = 10 (30
#: rows: 655-step chunks, 1.4 MB of EAdaUCB loads) took 0.27-0.30 s of CPU
#: against 0.30-0.35 s on 128-step chunks; 1 MiB (7 of the 10 EAdaUCB rows
#: in the batch) took 0.27-0.32 s, and 2 MiB 0.25-0.27 s with 0.5 MiB more
BATCH_BYTES = 3 * 2**19  # 1.5 MiB

#: index-family cells (policies x replications) from which
#: ``run_experiment`` runs them as the rows of one run, in the numpy
#: step: below it, the dozen numpy calls per step that the rows share cost
#: more than each cell's own one-row run, galloping as it does (the
#: measured crossover is 9-12 rows for fig2b-beta's mix of ucb, adaucb and
#: eadaucb at T = 1e4)
BATCH_ROWS = 10

#: the Python step's gallop: the wins in a row after which the row
#: gallops, and the fewest steps ahead worth a gallop (on a 2-vCPU x86-64
#: host a gallop's numpy block costs about 25 us over 32 steps and 55-65 us
#: over 1024, the loop about 1 us a step; a threshold of 8 wins, fixed or
#: adapted as in timsort, starts 2.6-5.5 times as many gallops on short
#: runs, most of which fail)
GALLOP_BLOCK = 32

#: Thompson sampling's screen (:func:`_thompson_kernel`): the levels of the
#: candidate's lower bounds; the rise in the candidate's b that one table
#: covers; the wins in a row after which a table is taken or moves to the
#: winner; and the steps of a first window.  On a 2-vCPU x86-64 host a table
#: costs about 15 us, a window 3-10 us, another arm's column 1.8 us and the
#: inverse over 5 arms 3 us.  With fig2b-beta's arms the screen decides
#: 0.43 of the steps at T = 2000, 0.84 at T = 1e4 and 0.97 at 1e5
SCREEN_LEVELS = (0.01, 0.1, 0.3, 0.5)
SCREEN_SLACK = 64
SCREEN_STREAK = 8
SCREEN_WINDOW = 16


@lru_cache(maxsize=1)
def _log_table(horizon: int) -> np.ndarray:
    """ln t for t in [1, horizon]: one table for every run of the most
    recent horizon (8 bytes a step), read-only, sliced chunk by chunk."""
    table = log_steps(range(1, horizon + 1))
    table.flags.writeable = False
    return table


def _chunk_steps(n_rows: int, n_arms: int) -> int:
    """Steps per chunk of a run of ``n_rows`` rows: as many as keep the
    chunk's arrays within :data:`BATCH_BYTES`, at most :data:`CHUNK` and at
    least 1.  A row-step takes K + 5 words: its K rewards, load, ``c_t`` and
    arm in the run's buffers, the ledger's cost, and a word for the index
    step's forced-pull mask (a byte)."""
    return max(1, min(CHUNK, BATCH_BYTES // (n_rows * (n_arms + 5) * 8)))


def _chunk_ends(n_arms: int, horizon: int, size: int) -> list[int]:
    # the init round ends a chunk of its own
    return sorted({n_arms, horizon, *range(size, horizon, size)})


def _check_rewards(rows: np.ndarray) -> None:
    # a NaN makes min() NaN, which fails the comparison
    if not (rows.min() >= 0.0 and rows.max() <= 1.0):
        raise ValueError("nominal rewards must be in [0, 1]")


class _Ledger:
    """Regret, pull and checkpoint accounting of ``n_rows`` runs of one
    bandit, a chunk of chosen arms at a time: the accounting block of the
    chunk loop (:func:`_run_rows`).

    The checkpoints are the only recording: each chunk is accounted in one
    pass, whatever the number of its checkpoints, so a per-step trace is
    ``checkpoints=np.arange(1, horizon + 1)``."""

    def __init__(self, bandit, checkpoints, horizon, n_rows):
        n_arms = bandit.n_arms
        if horizon < n_arms:
            raise ValueError(f"horizon {horizon} is shorter than the init round of {n_arms} arms")
        self.pts = check_checkpoints(checkpoints, horizon)
        self.gaps = np.array(bandit.gaps)
        self.suboptimal = self.gaps > 0.0
        self.regret = np.zeros(n_rows)
        self.pulled = np.zeros((n_rows, n_arms), dtype=np.int64)
        self.next_pt = 0
        self.ck_regret = np.empty((n_rows, len(self.pts)))
        self.ck_pulls = np.empty((n_rows, len(self.pts), n_arms), dtype=np.int64)

    def charged(self, arms: np.ndarray) -> np.ndarray:
        """The steps of one row's ``arms`` whose cost reads the load: the
        pulls of an arm with a positive gap.  Elsewhere the cost is
        ``load * 0``, so a load of 0 there leaves every sum as it is."""
        return self.suboptimal[arms]

    def add(self, i0: int, arms: np.ndarray, loads: np.ndarray) -> None:
        """Account steps i0+1..i0+n: ``arms`` and ``loads`` are (rows, n).
        ``arms`` is spent: the accounting overwrites it."""
        n_rows, n_arms = self.pulled.shape
        n = arms.shape[1]
        cost = self.gaps.take(arms)
        cost *= loads  # each step's load-weighted regret
        # cumulative sums in step order, row by row, from the regret so far
        cost[:, 0] += self.regret
        np.cumsum(cost, axis=1, out=cost)
        self.regret = cost[:, -1].copy()
        first, self.next_pt = self.next_pt, int(self.pts.searchsorted(i0 + n, side="right"))
        js = self.pts[first : self.next_pt] - i0  # the chunk's checkpoints, in steps of it
        self.ck_regret[:, first : self.next_pt] = cost[:, js - 1]
        # a step's segment is the number of the chunk's checkpoints before
        # it; the pulls per (row, segment, arm), summed over the segments,
        # are the pulls at each checkpoint and at the chunk's end
        n_segs = len(js) + 1
        cells = arms  # each step's (row, segment, arm) cell, in place
        cells += np.searchsorted(js, np.arange(n), side="right") * n_arms
        cells += np.arange(0, n_rows * n_segs * n_arms, n_segs * n_arms)[:, None]
        counts = np.bincount(cells.ravel(order="K"), minlength=n_rows * n_segs * n_arms)  # a count: any order
        counts = counts.reshape(n_rows, n_segs, n_arms)
        np.cumsum(counts, axis=1, out=counts)
        counts += self.pulled[:, None]
        self.ck_pulls[:, first : self.next_pt] = counts[:, :-1]
        self.pulled = counts[:, -1].copy()

    def trace(self, row: int) -> ReplicationTrace:
        return ReplicationTrace(checkpoints=self.pts, regret=self.ck_regret[row], pulls=self.ck_pulls[row])


def run_once(
    bandit: BanditInstance,
    load_model: LoadModel,
    reward_model: RewardModel,
    policy: Policy,
    horizon: int,
    checkpoints,
    load_rng: RngStream | None,
    reward_rng: RngStream | None,
    policy_rng: RngStream | None,
) -> ReplicationTrace:
    """Run a single replication and return its checkpointed trace: a
    one-row run of the chunk loop (:func:`_run_rows`).

    The checkpoints are all that is recorded; ``np.arange(1, horizon + 1)``
    records every step, at about the cost of the chunked run itself.  The
    policy must be freshly constructed or reset; the caller owns the
    streams.  An index policy is only read; any other policy is left as
    ``select`` and ``update`` at every step would leave it.
    """
    ledger = _Ledger(bandit, checkpoints, horizon, 1)
    if load_model.uses_rng and load_rng is None:
        raise ValueError("stochastic load model needs a load stream")
    if reward_model.uses_rng and reward_rng is None:
        raise ValueError("stochastic reward model needs a reward stream")
    _run_rows(load_model, reward_model, [(policy, load_rng, reward_rng, policy_rng)], horizon, ledger)
    return ledger.trace(0)


def _select_each_step(cells: list, held: list, horizon: int) -> Callable:
    """The reference step of one row: ``select`` and ``update`` at every
    step.  The rewards go to ``update`` as Python floats, from one flat list
    per chunk (a nested list per step costs the garbage collector more than
    the steps)."""
    [(policy, _, _, policy_rng)] = cells
    select, update = policy.select, policy.update

    def step(i0: int, i1: int, loads: np.ndarray, rewards: np.ndarray, chosen: np.ndarray) -> None:
        flat = rewards.ravel().tolist()
        n_arms = rewards.shape[2]
        arms = []
        for t, load, row in zip(range(i0 + 1, i1 + 1), loads[0].tolist(), range(0, len(flat), n_arms)):
            arm = select(t, load, policy_rng)
            update(arm, flat[row + arm], policy_rng)
            arms.append(arm)
        chosen[:, 0] = arms

    return step


def _thompson_kernel(cells: list, held: list, horizon: int) -> Callable:
    """Thompson sampling's step of one row: the arms ``select`` and
    ``update`` would choose, bit for bit, with each chunk's policy uniforms
    drawn at once and most steps decided without a posterior inverse.

    The init round runs through the policy's own ``select`` and ``update``
    (:func:`_select_each_step`), 1 uniform a step (the coin of ``update``).
    After it the per-step calls take per step K posterior uniforms ``u``
    and 1 coin; the kernel draws that many in one call and spends them in
    the same order, so the posterior (updated in place) and the stream end
    where the per-step calls would leave them.  A step's arm is the argmax
    (ties toward the lowest arm) of the draws ``betaincinv(a, b, u)``.

    The screen.  Once one arm c (the candidate) has won
    :data:`SCREEN_STREAK` steps in a row, the kernel takes a table: lower
    bounds ``x_g = betaincinv(a_c, b_c + SCREEN_SLACK, p_g)`` at the levels
    p_g of :data:`SCREEN_LEVELS`, and every other arm's CDF at them,
    ``F_k(x_g) = betainc(a_k, b_k, x_g)``.  A Beta quantile rises in a and
    falls in b, and c's a never falls, so while c's b stays at most
    ``b_c + SCREEN_SLACK``, c's draw at ``u_c > p_g`` is above ``x_g``, and
    arm k's draw at ``u_k < F_k(x_g)`` is below it.  A step where both hold
    at one level for every k, with ``p_g`` raised and ``F_k(x_g)`` lowered
    by the rounding margin of :func:`~opbandit.core.margin_up`, is c's, and
    takes no inverse.  Every other step takes the inverse, and with more
    than 3 arms only over the arms the table leaves open: an arm whose
    draw is certainly below ``x_g``, so below c's, can be neither the
    argmax nor tied with it, and its draw stays -1.

    Steps are screened a window at a time, ahead of the loop: the window
    starts at :data:`SCREEN_WINDOW` steps and doubles while c wins.  When
    another arm k wins a step (an exploration), only k's posterior moved,
    and the table keeps c's bounds.  A Beta CDF falls in a and rises in b,
    so after k's failure its old column is still under its CDFs: the column
    and the steps screened ahead still hold.  After k's success the table
    takes k's column again, and the steps ahead are screened anew.  The
    table is taken again when c's b passes its slack, and moves to another
    arm once that arm has won :data:`SCREEN_STREAK` steps in a row.  Until
    a first lead has held, no table is taken and a step costs what the
    inverse costs.
    """
    from scipy.special import betainc, betaincinv

    [(policy, _, _, policy_rng)] = cells
    if policy_rng is None:
        raise ValueError("Thompson sampling needs a policy stream")
    n_arms = policy.n_arms
    a, b = policy.a, policy.b
    draws = np.empty(n_arms)
    levels = np.array(SCREEN_LEVELS)
    bounds = np.empty_like(levels)  # the x_g of the table
    floors = margin_up(levels)  # the candidate's uniform must pass one
    # row 1 + g: where the candidate's uniform passes floor g (and no
    # higher), every other arm's must stay under its ceiling there; row 0
    # fails all
    ceilings = np.full((len(levels) + 1, n_arms), -1.0)
    # an inverse over the open arms only pays from 4 arms on (on a 2-vCPU
    # x86-64 host, 2 open arms take 1.9-2.3 us, and all arms 1.6 us at K = 3,
    # 2.5 at K = 4, 3.1 at K = 5 and 4.9 at K = 8)
    masked = n_arms > 3
    no_screen = repeat(False)
    decided = no_screen  # per step ahead: is it certainly the candidate's?
    opened = None  # per screened step: the arms left open (with `masked`)
    cand = lead = -1  # the table's arm; the last winner, which has won `streak` in a row
    streak = 0
    slack = -1  # the rises of the candidate's b the table still covers; -1: no table
    start = until = 0  # the chunk's first and last steps screened
    window = SCREEN_WINDOW  # the steps the next screen covers
    init_round = _select_each_step(cells, held, horizon)

    def take_table() -> None:
        nonlocal slack
        slack = SCREEN_SLACK
        bounds[:] = betaincinv(a[cand], b[cand] + SCREEN_SLACK, levels)
        margin_down(betainc(a, b, bounds[:, None], out=ceilings[1:]), out=ceilings[1:])
        ceilings[1:, cand] = 2.0  # the candidate is held to its floor instead

    def take_column(k: int) -> None:
        column = ceilings[1:, k]
        margin_down(betainc(a[k], b[k], bounds, out=column), out=column)

    def screen(u: np.ndarray, j: int) -> Iterator[bool]:
        """Screen the next window of the chunk's uniforms ``u`` from step j."""
        nonlocal opened, start, until, window
        start, until = j, j + window - 1
        u = u[j : j + window]
        window = min(2 * window, CHUNK)
        below = u < ceilings.take(floors.searchsorted(u[:, cand]), axis=0)
        if masked:
            opened = ~below
            opened[:, cand] = True
        return iter(below.all(axis=1).tolist())

    def step(i0: int, i1: int, loads: np.ndarray, rewards: np.ndarray, chosen: np.ndarray) -> None:
        nonlocal decided, cand, lead, streak, slack, window
        if i1 <= n_arms:  # the init round pulls arms 0..K-1 in order
            return init_round(i0, i1, loads, rewards, chosen)
        flat = rewards.ravel().tolist()  # as in _select_each_step
        rows = range(0, len(flat), n_arms)
        us = policy_rng.random((i1 - i0) * (n_arms + 1)).reshape(-1, n_arms + 1)
        u = us[:, :n_arms]
        decided = screen(u, 0) if slack >= 0 else no_screen
        arms = []
        for j, coin, row in zip(range(i1 - i0), us[:, n_arms].tolist(), rows):
            # each step samples the posterior its predecessor updated
            if next(decided):
                arm = cand
            elif masked and slack >= 0:
                draws.fill(-1.0)
                arm = int(betaincinv(a, b, u[j], out=draws, where=opened[j - start]).argmax())
            else:
                arm = int(betaincinv(a, b, u[j], out=draws).argmax())
            if coin < flat[row + arm]:
                a[arm] += 1.0
            else:
                b[arm] += 1.0
                if arm == cand:
                    slack -= 1
            arms.append(arm)
            if arm == lead:
                streak += 1
            else:
                lead, streak = arm, 1
            if arm != cand:
                if streak >= SCREEN_STREAK:  # the table moves to this arm
                    cand, slack = arm, -1
                elif slack < 0:  # no table yet
                    continue
                elif coin >= flat[row + arm] and j < until:
                    continue  # a failure raised this arm's CDFs: its column and the screen hold
                else:  # an exploration: only this arm's column moved
                    take_column(arm)
                window = SCREEN_WINDOW
            elif slack >= 0 and j < until:
                continue
            if slack < 0:  # a new candidate, or the table's slack is spent
                take_table()
            decided = screen(u, j + 1)
        chosen[:, 0] = arms

    return step


def _gallop(means: list, pulls: list, sums: list, lead: int, coeff: np.ndarray, rewards: np.ndarray) -> int:
    """How many of the steps of ``coeff`` (n,; no forced pull) and
    ``rewards`` (n, K) the arm ``lead`` wins in a row, checked in one numpy
    block; the row's statistics are advanced by that many pulls.

    The block takes every arm's index on the hypothesis that the leader
    wins every step of it: its pulls count up one a step and its sums are a
    running sum in step order, while the other arms keep theirs.  The
    index is the loop's ``mean + sqrt(c / pulls)`` (with ``c == 0`` it is
    the mean), so the first step whose argmax (ties toward the lowest arm)
    is not the leader is exactly where the loop's leader would lose.
    """
    n = len(coeff)
    running = np.empty(n + 1)
    running[0] = sums[lead]
    running[1:] = rewards[:, lead]
    np.cumsum(running, out=running)  # s, s + x1, (s + x1) + x2, ...
    lead_pulls = np.arange(pulls[lead], pulls[lead] + n, dtype=float)
    index = np.sqrt(coeff[:, None] / np.array(pulls, dtype=float)) + np.array(means)
    index[:, lead] = np.sqrt(coeff / lead_pulls) + running[:n] / lead_pulls
    lost = np.flatnonzero(index.argmax(axis=1) != lead)
    won = int(lost[0]) if len(lost) else n
    if won:
        pulls[lead] += won
        sums[lead] = running[won].item()
        means[lead] = sums[lead] / pulls[lead]
    return won


def _python_step(n_arms: int) -> Callable:
    """The step for one row: a Python loop over the chunk, with the arm
    statistics as Python numbers, that gallops through runs.

    As in timsort's galloping mode, once one arm (the leader) has won
    :data:`GALLOP_BLOCK` steps in a row and at least as many steps lie
    ahead before the next forced pull or the chunk's end, the step checks
    all of those steps in one numpy block (:func:`_gallop`) and takes the
    plain loop again at the step the leader loses.  The leader and its
    streak carry over from chunk to chunk.
    """
    means, pulls, sums = [0.0] * n_arms, [0] * n_arms, [0.0] * n_arms
    lead, streak = -1, 0
    block = GALLOP_BLOCK
    sqrt = math.sqrt
    arm_range = range(n_arms)
    floor = -math.inf

    def step(coeff: np.ndarray, rewards: np.ndarray, chosen: np.ndarray) -> None:
        nonlocal lead, streak
        c_row, x_row = coeff[:, 0, 0], rewards[:, 0]
        # where a gallop must stop: each forced pull, and the chunk's end
        stops = [*np.flatnonzero(c_row < 0.0).tolist(), len(c_row)]
        flat = x_row.ravel().tolist()
        steps = zip(c_row.tolist(), range(0, len(flat), n_arms))
        arms = []
        while True:
            for c, row in steps:
                if c < 0.0:  # forced pull of arm -1 - c
                    arm = -1 - int(c)
                elif c == 0.0:  # greedy: each index is its mean (max keeps the first)
                    arm = means.index(max(means))
                else:
                    best = floor
                    for k in arm_range:
                        v = means[k] + sqrt(c / pulls[k])
                        if v > best:
                            best = v
                            arm = k
                x = flat[row + arm]
                p = pulls[arm] + 1
                s = sums[arm] + x
                pulls[arm] = p
                sums[arm] = s
                means[arm] = s / p
                arms.append(arm)
                if arm != lead:
                    lead = arm
                    streak = 1
                else:
                    streak += 1
                    if streak >= block:
                        i = row // n_arms + 1  # the steps done
                        ahead = stops[bisect_left(stops, i)] - i
                        if ahead >= block:
                            break
            else:  # the chunk is done
                break
            won = _gallop(means, pulls, sums, lead, c_row[i : i + ahead], x_row[i : i + ahead])
            if won:
                arms += [lead] * won
                streak += won
                next(islice(steps, won, won), None)  # skip the steps won
        chosen[:, 0] = arms

    return step


def _numpy_step(n_rows: int, n_arms: int) -> Callable:
    """The step for many rows: per step one numpy argmax over all rows and
    flat fancy-index updates."""
    # ArmState's pulls and sums, row by row; a mean is always sums / pulls
    pulls = np.zeros((n_rows, n_arms))
    sums = np.zeros((n_rows, n_arms))
    pulls_flat, sums_flat = pulls.ravel(), sums.ravel()
    base = np.arange(0, n_rows * n_arms, n_arms)
    index = np.empty((n_rows, n_arms))
    means = np.empty((n_rows, n_arms))

    def step(coeff: np.ndarray, rewards: np.ndarray, chosen: np.ndarray) -> None:
        n = len(coeff)
        # forced pulls as one mask; each step's forced arms (-1: none) wait
        # in its row of ``chosen``, and the index sees c = 0 there
        is_forced = coeff[:, :, 0] < 0.0
        chosen.fill(-1)
        chosen[is_forced] = -1.0 - coeff[:, :, 0][is_forced]
        n_forced = is_forced.sum(axis=1).tolist()
        np.maximum(coeff, 0.0, out=coeff)

        flat_rewards = rewards.reshape(n, -1)
        for j, k in enumerate(n_forced):
            forced = chosen[j]
            if k < n_rows:
                np.divide(coeff[j], pulls, out=index)
                np.sqrt(index, out=index)
                np.divide(sums, pulls, out=means)
                np.add(index, means, out=index)
                flat = index.argmax(axis=1)
                if k:
                    flat = np.where(forced >= 0, forced, flat)
                flat += base
            else:
                flat = forced + base
            # ArmState.update of each row's arm (one per row): p + 1, s + x
            pulls_flat[flat] += 1.0
            sums_flat[flat] += flat_rewards[j][flat]
            chosen[j] = flat
        chosen -= base

    return step


def _index_step(cells: list, held: list, horizon: int) -> Callable:
    """The index family's step: per row, ``argmax mean + sqrt(c_t / pulls)``
    (ties toward the lowest arm) after the init round, as ``select`` would,
    with ``c_t`` from the policy's schedule, given the rows' loads, ``ln t``
    (a slice of one table per horizon) and ``held``, each row's running
    quantiles or None.  ``choose(coeff, rewards, chosen)`` takes the chunk's
    ``c_t`` (n, N, 1; ``-1 - k`` forces a pull of arm k): one row takes a
    Python loop that gallops through runs of one arm's wins
    (:func:`_python_step`), more rows advance together (:func:`_numpy_step`).
    Both do the float arithmetic of ``select`` and ``update``, so a row's
    arms depend neither on which one runs nor on the other rows."""
    n_rows, n_arms = len(cells), cells[0][0].n_arms
    schedules = [policy.exploration_schedule(quantiles) for (policy, *_), quantiles in zip(cells, held)]
    choose = _python_step(n_arms) if n_rows == 1 else _numpy_step(n_rows, n_arms)

    def step(i0: int, i1: int, loads: np.ndarray, rewards: np.ndarray, chosen: np.ndarray) -> None:
        coeff = np.empty((i1 - i0, n_rows, 1))
        if i1 <= n_arms:  # the init round pulls arms 0..K-1 in order
            coeff[:] = (-1.0 - np.arange(i0, i1))[:, None, None]
        else:  # a schedule that does not read loads takes only their number
            ln_t = _log_table(horizon)[i0:i1]
            for r, schedule in enumerate(schedules):
                coeff[:, r, 0] = schedule(i1, loads[r], ln_t)
        choose(coeff, rewards, chosen)

    return step


def _route(policy) -> tuple[Callable, int | None]:
    """The step factory of ``policy``'s cells, ``make(cells, held, horizon)``,
    and the fewest of them that :func:`run_experiment` runs as the rows of
    one run (None: each runs alone, through :func:`run_once`).

    - Every :class:`~opbandit.policies.IndexPolicy` (``ucb``, ``adaucb``,
      ``eadaucb``, ``rr-greedy`` and their subclasses) takes
      :func:`_index_step`, and its cells batch from :data:`BATCH_ROWS` on:
      the policy supplies each step's exploration coefficient ``c_t``, and
      the step picks the arms with its own arm statistics, so the policy is
      only read.
    - Thompson sampling (:class:`~opbandit.policies.ThompsonPolicy`) takes
      :func:`_thompson_kernel`, one row, which draws a chunk's policy
      uniforms at once and decides most steps without a posterior inverse.
    - Everything else (``linucb``, ``oracle``, and any object that hides its
      class, such as a proxy that times each call) takes
      :func:`_select_each_step`, one row: ``select`` and ``update`` at
      every step.  That per-step way is the reference: the other two choose
      the arms it would, bit for bit, and the Thompson kernel leaves the
      policy and its stream as it would.
    """
    if isinstance(policy, IndexPolicy):
        return _index_step, BATCH_ROWS
    if isinstance(policy, ThompsonPolicy):
        return _thompson_kernel, None
    return _select_each_step, None


def _run_rows(
    load_model: LoadModel,
    reward_model: RewardModel,
    cells: list[tuple[Policy, RngStream | None, RngStream | None, RngStream | None]],
    horizon: int,
    ledger: _Ledger,
) -> None:
    """The one chunk loop: run every (policy, load stream, reward stream,
    policy stream) cell as one row, a chunk of steps at a time, and account
    row r in row r of ``ledger``.

    The first cell's route (:func:`_route`) gives the step.  A chunk of n
    steps is one ``step(i0, i1, loads, rewards, chosen)``: it fills
    ``chosen`` (n, N) with each row's arms at steps i0+1..i1, given the
    rows' loads (N, n; drawn before the step only for the rows whose
    choice reads them) and every arm's rewards (n, N, K).  A chunk is the
    most steps whose arrays fit :data:`BATCH_BYTES` (:func:`_chunk_steps`),
    at most :data:`CHUNK`, which one row on a few arms takes.  The rows
    share the chunk's buffers, and the ledger reuses ``chosen`` for its
    cells.
    """
    n_rows, n_arms = len(cells), ledger.pulled.shape[1]
    size = _chunk_steps(n_rows, n_arms)
    held = [  # the whole run's loads, kept only inside its quantiles
        RunningQuantiles(load_model.sample_loads(horizon, load_rng), policy.quantile_probs)
        if getattr(policy, "quantile_probs", ())
        else None
        for policy, load_rng, *_ in cells
    ]
    make_step, _ = _route(cells[0][0])
    step = make_step(cells, held, horizon)
    rows = [  # (load stream, reward stream, quantiles or None, reads loads)
        (load_rng, reward_rng, quantiles, getattr(policy, "reads_loads", True))
        for (policy, load_rng, reward_rng, _), quantiles in zip(cells, held)
    ]
    lazy = [(r, load_rng) for r, (load_rng, *_, reads) in enumerate(rows) if not reads]

    # per-chunk buffers, step-major: one (N, K) block of rewards per step
    chunk_loads = np.empty((n_rows, size))
    chunk_rewards = np.empty((size, n_rows, n_arms))
    chunk_chosen = np.empty((size, n_rows), dtype=np.intp)

    i0 = 0
    for i1 in _chunk_ends(n_arms, horizon, size):
        n = i1 - i0
        loads, rewards, chosen = chunk_loads[:, :n], chunk_rewards[:n], chunk_chosen[:n]
        for r, (load_rng, reward_rng, quantiles, reads) in enumerate(rows):
            if quantiles is not None:
                loads[r] = quantiles.loads(i0, i1)
            elif reads:
                loads[r] = load_model.sample_loads(n, load_rng, i0 + 1)
            rewards[:, r] = reward_model.reward_rows(i0 + 1, n, reward_rng)
        _check_rewards(rewards)
        step(i0, i1, loads, rewards, chosen)
        for r, load_rng in lazy:
            loads[r] = load_model.sample_loads(n, load_rng, i0 + 1, where=ledger.charged(chosen[:, r]))
        ledger.add(i0, chosen.T, loads)
        i0 = i1


def _fresh(policy: Policy) -> Policy:
    """A reset copy of ``policy``, which is left as it is."""
    cell = copy.copy(policy)
    cell.reset()
    return cell


def run_experiment(
    bandit: BanditInstance,
    load_model: LoadModel,
    reward_model: RewardModel,
    policies: dict[str, Policy],
    horizon: int,
    replications: int,
    base_seed: int,
    checkpoints=None,
) -> dict[str, RegretTrace]:
    """Run every policy for ``replications`` independent replications and
    aggregate the checkpointed traces.

    Stream ids depend only on (base seed, policy label, replication index),
    so results are independent of execution order and of the total number of
    replications requested.  A route's cells (:func:`_route`) run as the
    rows of one run of the chunk loop when they number at least its fewest;
    a cell of a policy with ``quantile_probs`` (EAdaUCB's) joins only while
    the loads it and the cells before it hold for the whole run fit
    :data:`BATCH_BYTES`.  Every other cell runs alone through
    :func:`run_once`, called by its module-level name, so that a wrapper
    bound to that name sees every such cell.  Either way the results are
    the same, and every cell runs on a reset copy of its policy:
    ``policies`` are left as they are.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if checkpoints is None:
        checkpoints = default_checkpoints(horizon)
    pts = check_checkpoints(checkpoints, horizon)

    batches, room = {}, BATCH_BYTES  # a route's (label, replication) cells that may batch
    for label, policy in policies.items():
        route = _route(policy)
        probs = getattr(policy, "quantile_probs", ())
        held = RunningQuantiles.held_bytes(horizon, len(probs)) if probs else 0
        for rep in range(replications):
            if route[1] is not None and held <= room:  # a quantile row joins while the loads it holds fit
                batches.setdefault(route, []).append((label, rep))
                room -= held
    runs = [keys for (_, fewest), keys in batches.items() if len(keys) >= fewest]
    batched = {key for keys in runs for key in keys}
    runs += [[(label, rep)] for label in policies for rep in range(replications) if (label, rep) not in batched]

    n_arms = bandit.n_arms
    regret = {label: np.empty((replications, len(pts))) for label in policies}
    pulls = {label: np.empty((replications, len(pts), n_arms), dtype=np.int64) for label in policies}
    for keys in runs:
        cells = [(_fresh(policies[label]), *replication_streams(base_seed, label, rep).values()) for label, rep in keys]
        if len(cells) == 1:
            policy, *streams = cells[0]
            traces = [run_once(bandit, load_model, reward_model, policy, horizon, pts, *streams)]
        else:
            ledger = _Ledger(bandit, pts, horizon, len(cells))
            _run_rows(load_model, reward_model, cells, horizon, ledger)
            traces = map(ledger.trace, range(len(cells)))
        for (label, rep), trace in zip(keys, traces):
            regret[label][rep] = trace.regret
            pulls[label][rep] = trace.pulls
    return {
        label: RegretTrace(policy=label, checkpoints=pts, regret=regret[label], pulls=pulls[label])
        for label in policies
    }
