"""Output checks computed apart from the serving path.

* :func:`oracle_threads` recomputes the thread count each plan should
  carry: the argmin of the bundle model's runtime curve over the candidate
  threads, from the feature matrix -> ``pipeline.transform`` ->
  ``model.predict`` with tree models in their recursive reference mode, so
  no serving, compiled or native code is involved.  Shapes go through
  ``feature_matrix_grid`` in chunks (the stack of
  ``feature_matrix_for_threads`` over the chunk); a plan that disagrees is
  re-checked with ``feature_matrix_for_threads`` on its shape alone.
* :func:`check_threads` compares served thread counts with the oracle, and
  :func:`self_test` shows that one perturbed thread count fails it.
* :func:`speedups` times every plan's chosen thread count and the maximum
  thread count on a simulator the benchmark builds itself, with fixed
  settings, so the speedup never depends on times the program reports.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from inputs import ROUTINES, dim_names

#: Shapes per oracle batch: bounds the feature matrix to about 100k rows.
_CHUNK = 1024
#: Settings of the benchmark's own timing simulator (noise off).
SPEEDUP_SIMULATOR = {"platform": "gadi", "seed": 0, "noise_level": 0.0}


def _curves(predictor, routine: str, dims_list: Sequence[Dict[str, int]]) -> np.ndarray:
    from repro.core.features import feature_matrix_for_threads, feature_matrix_grid
    from repro.ml.tree import reference_mode

    candidates = np.asarray(predictor.candidate_threads)
    with reference_mode():
        if len(dims_list) == 1:
            X = feature_matrix_for_threads(routine, dims_list[0], candidates)
        else:
            X = feature_matrix_grid(routine, dims_list, candidates)
        y = predictor.model.predict(predictor.pipeline.transform(X))
    return np.asarray(y, dtype=float).reshape(len(dims_list), len(candidates))


def oracle_threads(bundle, routine: str, dims_list: Sequence[Dict[str, int]]) -> np.ndarray:
    """The argmin thread count of the model's runtime curve, per shape.

    Shapes are evaluated in chunks for speed.  Where a chunked row and the
    served plan disagree, :func:`check_threads` re-evaluates that shape on
    its own, the per-call computation exactly.
    """
    predictor = bundle.predictor(routine)
    candidates = np.asarray(predictor.candidate_threads)
    out = np.empty(len(dims_list), dtype=np.int64)
    for start in range(0, len(dims_list), _CHUNK):
        chunk = dims_list[start : start + _CHUNK]
        out[start : start + len(chunk)] = candidates[np.argmin(_curves(predictor, routine, chunk), axis=1)]
    return out


def check_threads(bundle, routine_idx: np.ndarray, dims: np.ndarray, threads: np.ndarray) -> List[str]:
    """Problems found comparing served ``threads`` with the oracle (empty = pass).

    ``routine_idx`` indexes :data:`inputs.ROUTINES`; row ``i`` of ``dims``
    holds the request's dimensions in :func:`inputs.dim_names` order
    (unused trailing columns are zero).  Each distinct shape is evaluated
    once and compared with every plan served for it.
    """
    shapes, inverse = np.unique(np.column_stack([routine_idx, dims]), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    expected = np.empty(len(shapes), dtype=np.int64)
    requests: List[tuple] = [()] * len(shapes)
    for index, routine in enumerate(ROUTINES):
        rows = np.flatnonzero(shapes[:, 0] == index)
        if not rows.size:
            continue
        names = dim_names(routine)
        dims_list = [dict(zip(names, (int(v) for v in shapes[row, 1:]))) for row in rows]
        expected[rows] = oracle_threads(bundle, routine, dims_list)
        for row, request_dims in zip(rows, dims_list):
            requests[row] = (routine, request_dims)
    problems: List[str] = []
    for plan in np.flatnonzero(expected[inverse] != threads):
        routine, request_dims = requests[inverse[plan]]
        alone = oracle_threads(bundle, routine, [request_dims])[0]
        if alone != threads[plan]:
            problems.append(
                f"{routine} {request_dims}: served {int(threads[plan])} threads, "
                f"model argmin is {int(alone)}"
            )
    return problems


def self_test(bundle, routine_idx: np.ndarray, dims: np.ndarray, threads: np.ndarray) -> bool:
    """True when perturbing one served thread count makes the check fail."""
    slot = len(threads) // 2
    probe = slice(slot, slot + 1)
    perturbed = threads[probe] % bundle.platform.max_threads + 1
    return bool(check_threads(bundle, routine_idx[probe], dims[probe], perturbed))


def speedup_simulator():
    from repro.machine import get_platform
    from repro.machine.simulator import TimingSimulator

    return TimingSimulator(
        get_platform(SPEEDUP_SIMULATOR["platform"]),
        seed=SPEEDUP_SIMULATOR["seed"],
        noise_level=SPEEDUP_SIMULATOR["noise_level"],
    )


def _columns(routine: str, dims: np.ndarray) -> Dict[str, np.ndarray]:
    return {name: dims[:, i] for i, name in enumerate(dim_names(routine))}


def speedups(simulator, routine_idx: np.ndarray, dims: np.ndarray, threads: np.ndarray) -> np.ndarray:
    """Simulated time at max threads over time at the chosen threads, per plan."""
    max_threads = simulator.platform.max_threads
    out = np.empty(len(threads))
    for index, routine in enumerate(ROUTINES):
        rows = np.flatnonzero(routine_idx == index)
        if not rows.size:
            continue
        columns = _columns(routine, dims[rows])
        chosen = simulator.time_batch(routine, columns, threads[rows])
        baseline = simulator.time_batch(routine, columns, max_threads)
        out[rows] = baseline / chosen
    return out


def oracle_speedups(simulator, routine_idx: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """The best speedup any thread count reaches on the simulator, per shape."""
    candidates = np.asarray(simulator.platform.candidate_thread_counts())
    max_threads = simulator.platform.max_threads
    out = np.empty(len(routine_idx))
    for index, routine in enumerate(ROUTINES):
        rows = np.flatnonzero(routine_idx == index)
        if not rows.size:
            continue
        columns = {
            name: np.repeat(values, len(candidates))
            for name, values in _columns(routine, dims[rows]).items()
        }
        grid = simulator.time_batch(routine, columns, np.tile(candidates, len(rows)))
        grid = grid.reshape(len(rows), len(candidates))
        baseline = grid[:, list(candidates).index(max_threads)]
        out[rows] = baseline / grid.min(axis=1)
    return out


def gmean(values: np.ndarray) -> float:
    return float(np.exp(np.mean(np.log(values))))
