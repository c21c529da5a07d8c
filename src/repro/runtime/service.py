"""The risk-map serving facade: fit (or load) once, predict many.

Deployed PAWS installations (Section VII: MFNP, QENP, SWS) serve risk maps
repeatedly from one fitted model — every patrol post queries the same
effort-response surfaces, dashboards re-render the same maps, and planners
re-solve under different robustness weights. :class:`RiskMapService` wraps a
fitted :class:`~repro.core.predictor.PawsPredictor` with

* a **member-pass cache**: member predictions do not depend on the
  hypothesised effort (effort only selects which iWare-E members vote), so
  each feature set pays one effort-free model pass
  (:meth:`~repro.core.predictor.PawsPredictor.member_surfaces`), and every
  ``risk_map`` effort and ``effort_response`` grid is a cheap weighted mix
  of it (:meth:`~repro.core.predictor.PawsPredictor.mix_effort`,
  :meth:`~repro.core.predictor.PawsPredictor.mix_grid`) — bit-identical to
  ``predict_proba`` / ``effort_response`` on the features,
* the **tiled, parallel** prediction engine (``tile_size`` bounds transient
  memory at ``O(n_train x tile)``; ``n_jobs`` spreads ``(member x tile)``
  tasks over the hint-selected pool — surfaces are bit-identical to the
  serial, untiled path at any setting),
* an **LRU result cache** (:class:`~repro.runtime.concurrency.LRUCache`)
  in front of it, keyed on the request arrays, so repeated queries (the
  common case: same park features, same planner breakpoints) cost a
  dictionary lookup, and
* **feature registration**: parks whose feature matrix is served over and
  over register it once (:meth:`register_features`), paying the SHA-256
  content hash at registration instead of on every query.

Combined with model persistence, this is the "serve without refit" workload::

    predictor.save("models/mfnp-gpb")           # once, after training
    service = RiskMapService.from_saved("models/mfnp-gpb",
                                        tile_size=4096, n_jobs=4)
    park = service.register_features("mfnp", features)
    risk, nu = service.effort_response(park, planner.breakpoints())
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from repro.core.predictor import PawsPredictor
from repro.exceptions import ConfigurationError, NotFittedError
from repro.runtime.concurrency import LRUCache, thread_shared
from repro.runtime.parallel import check_backend, resolve_n_jobs
from repro.runtime.resilience import (
    ResilienceStats,
    collect_stats,
    deadline_scope,
)


@thread_shared
class RiskMapService:
    """Cached serving facade over a fitted predictor.

    The service is ``@thread_shared``: one instance may serve many request
    threads concurrently (the park-service daemon's deployment shape).
    Registry mutations happen under ``self._lock``; both caches lock
    themselves (concurrent misses on one key each compute the bit-identical
    result and the first insertion wins). One caveat inherited from the
    predictor API: ``effort_response`` restores the predictor's
    ``uncertainty_scaler`` alongside each result, and that attribute lives
    on the (shared) predictor — concurrent queries over *different*
    feature sets leave it matching whichever query finished last.

    Parameters
    ----------
    predictor:
        A fitted :class:`~repro.core.predictor.PawsPredictor`.
    max_entries:
        Capacity of each LRU: the result cache holds one query's result
        arrays per entry, the member-pass cache one feature set's
        ``(probabilities, variances)`` (``2 x I x n_cells`` floats). Zero
        disables caching.
    tile_size:
        Rows per prediction tile (``None`` = untiled). Bounds the serving
        path's transient memory at ``O(n_train x tile_size)`` per in-flight
        task instead of ``O(n_train x n_cells)``.
    n_jobs:
        Workers for the ``(member x tile)`` prediction fan-out (1 = serial,
        -1 = all cores). Served surfaces are bit-identical to serial.
    backend:
        Pool flavour for that fan-out: ``"thread"``, ``"process"``, or
        ``"auto"`` (hint-based, like fitting: tree members to processes,
        BLAS-heavy GP members to threads).
    """

    def __init__(
        self,
        predictor: PawsPredictor,
        max_entries: int = 32,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ):
        if not isinstance(predictor, PawsPredictor):
            raise ConfigurationError(
                f"expected a PawsPredictor, got {type(predictor).__name__}"
            )
        try:
            predictor._check_fitted()
        except NotFittedError:
            raise NotFittedError(
                "RiskMapService needs a fitted predictor (fit it, or load "
                "one with RiskMapService.from_saved)"
            ) from None
        if tile_size is not None and int(tile_size) < 1:
            raise ConfigurationError(f"tile_size must be >= 1, got {tile_size}")
        resolve_n_jobs(n_jobs)
        self.predictor = predictor
        self.tile_size = None if tile_size is None else int(tile_size)
        self.n_jobs = n_jobs
        self.backend = check_backend(backend)
        self._cache = LRUCache(max_entries)
        #: feature content digest -> one member_surfaces pass.
        self._members = LRUCache(max_entries)
        # Mutated only under self._lock (the @thread_shared contract, RP004):
        # one service instance is shared by every request thread of the
        # park-service daemon. Reads stay lock-free — single dict operations
        # are atomic under the GIL.
        self._lock = threading.RLock()
        #: name -> (array, registration-time digest); see register_features.
        self._registered: dict[str, tuple[np.ndarray, str]] = {}
        #: id(array) -> name, so passing the registered object skips hashing.
        self._registered_ids: dict[int, str] = {}
        #: Accumulated fan-out survival counters (the daemon's /stats feed).
        self._resilience = ResilienceStats()

    # ------------------------------------------------------------------
    # Construction from a saved model
    # ------------------------------------------------------------------
    @classmethod
    def from_saved(
        cls,
        path,
        max_entries: int = 32,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
        verify: bool = True,
    ) -> "RiskMapService":
        """Serve a predictor persisted with ``PawsPredictor.save``.

        ``verify`` controls checksum verification of the saved arrays (see
        :func:`repro.runtime.persistence.load_model`); on by default.
        """
        return cls(
            PawsPredictor.load(path, verify=verify), max_entries=max_entries,
            tile_size=tile_size, n_jobs=n_jobs, backend=backend,
        )

    def save(self, path) -> None:
        """Persist the underlying predictor (the cache is not saved)."""
        self.predictor.save(path)

    # ------------------------------------------------------------------
    # Feature registration (hash once, serve many)
    # ------------------------------------------------------------------
    def register_features(self, name: str, features: np.ndarray) -> str:
        """Register a park's feature matrix; returns a token for queries.

        The SHA-256 content hash — linear in the matrix, tens of
        milliseconds per million cells — is computed **once**, here.
        Queries made with the returned token (or with the registered array
        object itself) key the LRU by that registration-time digest instead
        of re-hashing the full matrix every call; unregistered arrays fall
        back to per-query content hashing, which yields the same key for
        the same content.

        **Mutation contract**: the service keys the cache by the
        registration-time hash and does not re-inspect the array, so
        mutating a registered array in place serves stale results. Treat
        registered arrays as frozen — copy before editing, or call
        :meth:`register_features` again (same name) to re-hash.

        Registering a new array under an existing name replaces the
        registration; cached results of the old array are keyed by its old
        digest and simply age out of the LRU.
        """
        features = np.asarray(features, dtype=float)
        digest = self._array_digest(features)  # hash outside the lock
        with self._lock:
            previous = self._registered.get(name)
            if previous is not None:
                self._registered_ids.pop(id(previous[0]), None)
            self._registered[name] = (features, digest)
            self._registered_ids[id(features)] = name
        return name

    def unregister_features(self, name: str) -> None:
        """Forget the registration under ``name``, if any. Queries passing
        the formerly registered array fall back to the content hash, which
        gives the same cache key."""
        with self._lock:
            previous = self._registered.pop(name, None)
            if previous is not None:
                self._registered_ids.pop(id(previous[0]), None)

    def _resolve_features(self, features) -> tuple[np.ndarray, str]:
        """``(array, content digest)`` for a token, registered, or ad-hoc query."""
        if isinstance(features, str):
            registered = self._registered.get(features)
            if registered is None:
                raise ConfigurationError(
                    f"no features registered under '{features}' "
                    "(call register_features first)"
                )
            return registered
        array = np.asarray(features, dtype=float)
        # One read of each dict: a concurrent unregister_features may drop
        # the entry between them, and then the array is simply hashed.
        registered = self._registered.get(self._registered_ids.get(id(array)))
        if registered is not None and registered[0] is array:
            return registered
        return array, self._array_digest(array)

    # ------------------------------------------------------------------
    # Cached queries
    # ------------------------------------------------------------------
    @staticmethod
    def _array_digest(array: np.ndarray) -> str:
        """Content hash of one array (shape + dtype + bytes)."""
        array = np.ascontiguousarray(array)
        digest = hashlib.sha256()
        digest.update(str(array.shape).encode())
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
        return digest.hexdigest()

    @classmethod
    def _key(cls, tag: str, *parts) -> str:
        """Cache key from a tag and string/array parts (arrays are hashed)."""
        digest = hashlib.sha256()
        digest.update(tag.encode())
        for part in parts:
            if isinstance(part, str):
                digest.update(part.encode())
            else:
                digest.update(cls._array_digest(np.asarray(part)).encode())
        return digest.hexdigest()

    def _absorb(self, stats: ResilienceStats) -> None:
        """Fold one request's fan-out stats into the service counters."""
        with self._lock:
            self._resilience.merge(stats)

    def _member_surfaces(
        self, array: np.ndarray, digest: str, deadline, backend: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cached effort-free member pass over one feature set.

        Keyed by the feature content digest alone: every effort and grid
        over the same features mixes from the same pass. A miss runs under
        the request's ``deadline`` and folds its fan-out stats into the
        service counters; an overrun caches nothing.
        """

        def compute():
            with deadline_scope(deadline), collect_stats() as stats:
                try:
                    return self.predictor.member_surfaces(
                        array, tile_size=self.tile_size, n_jobs=self.n_jobs,
                        backend=backend,
                    )
                finally:
                    self._absorb(stats)

        return self._members.get_or_compute(digest, compute)

    def effort_response(
        self,
        features,
        effort_grid: np.ndarray,
        deadline: float | None = None,
        backend: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached batched ``(g_v(c), nu_v(c))`` surfaces for planner input.

        ``features`` is a matrix, a registered array, or a token from
        :meth:`register_features`. Returns copies, so callers may mutate the
        results freely without poisoning the cache. The predictor's
        ``uncertainty_scaler`` is cached with each result and restored on
        hits, so it always matches the surfaces just returned — exactly as
        if the query had been recomputed.

        ``deadline`` bounds the member pass on a miss of both caches
        (seconds, or a shared :class:`~repro.runtime.resilience.Deadline`);
        an overrun raises :class:`~repro.exceptions.DeadlineExceededError`
        and caches nothing. Hits return immediately regardless.

        ``backend`` overrides the service's pool flavour for this one query
        (the daemon's degraded-dispatch path). Results are bit-identical
        across backends, so the cache keys are unchanged.
        """
        array, digest = self._resolve_features(features)
        effort_grid = np.asarray(effort_grid, dtype=float)
        key = self._key("effort_response", digest, effort_grid)
        chosen_backend = self.backend if backend is None else check_backend(backend)

        def compute():
            risk, nu = self.predictor.mix_grid(
                self._member_surfaces(array, digest, deadline, chosen_backend),
                effort_grid,
            )
            return risk, nu, self.predictor.uncertainty_scaler

        risk, nu, scaler = self._cache.get_or_compute(key, compute)
        self.predictor._uncertainty_scaler = scaler
        return risk.copy(), nu.copy()

    def risk_map(
        self,
        features,
        effort: float | None = None,
        deadline: float | None = None,
        backend: str | None = None,
    ) -> np.ndarray:
        """Cached per-cell attack-detection probability at one effort level.

        ``effort=None`` gives the unconditional (prior-corrected) map; a
        value conditions on that hypothetical patrol effort, as in the
        Fig. 6 risk maps. A non-finite or negative effort raises
        :class:`~repro.exceptions.ConfigurationError`. ``features`` may be a
        token, as in :meth:`effort_response`; ``deadline`` bounds the member
        pass and ``backend`` overrides the pool flavour the same way.
        """
        array, digest = self._resolve_features(features)
        effort_tag = "none" if effort is None else repr(float(effort))
        key = self._key(f"risk_map/{effort_tag}", digest)
        chosen_backend = self.backend if backend is None else check_backend(backend)

        def compute():
            return (self.predictor.mix_effort(
                self._member_surfaces(array, digest, deadline, chosen_backend),
                effort,
            ),)

        (risk,) = self._cache.get_or_compute(key, compute)
        return risk.copy()

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        """Result-cache counters (:meth:`LRUCache.info`)."""
        return self._cache.info()

    def member_cache_info(self) -> dict[str, int]:
        """Member-pass cache counters (:meth:`LRUCache.info`)."""
        return self._members.info()

    def resilience_info(self) -> dict:
        """Accumulated fan-out survival counters (the daemon's ``/stats``).

        Counts what every member-pass compute survived: retries, worker
        deaths, degradations, pickle fallbacks, deadline overruns, and the
        completion backend of each fan-out. All zeros on a healthy host.
        """
        with self._lock:
            return self._resilience.as_dict()

    def clear_cache(self) -> None:
        """Drop every cached result and member pass (hit/miss counters are
        kept)."""
        self._cache.evict_all()
        self._members.evict_all()
