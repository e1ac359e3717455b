"""Digest-keyed campaign result cache: one directory of JSONL entries.

Large campaigns (the paper's 360-episode grids, the Table VII/VIII sweeps)
are pure functions of their inputs: episode seeds are fully determined by
the :class:`~repro.attacks.campaign.CampaignSpec` and every backend returns
bit-identical results.  That makes campaign results cacheable by *content
digest*: canonicalise everything that influences the outcome — the
enumerated episode list, the :class:`~repro.safety.arbitration.InterventionConfig`,
the ML-arm fingerprint and the episode horizon — into a JSON document
with sorted keys and hash it with SHA-256.  The digest is stable across
processes, machines and Python versions (``hash()`` is salted per process
and unusable here, exactly as in :func:`repro.utils.rng.derive_seed`).

The store is one class, :class:`CampaignCache`: a directory holding one
``<digest>.jsonl`` file per completed campaign.  It is the exchange
format of the distributed scheduler — remote workers and the report
pipeline share entries through one directory, local or on a shared
filesystem.  :func:`complete_hit` is the one rule for accepting an entry
in place of running the campaign; the scheduler's stored-results rule
(:func:`repro.core.scheduler.load_stored`) applies it together with the
resume file.

Entries are written atomically (temp file + ``os.replace``), so a reader
never observes a partial entry; a corrupt or truncated entry is treated as
a miss and discarded.  ``run_campaign`` and the report pipeline consult
the cache before executing anything, so a repeated campaign — same grid,
same interventions, same weights — executes zero episodes.

The cache directory defaults to the ``REPRO_CACHE_DIR`` environment
variable (see :func:`default_cache`); when unset, caching is off, and a
value that does not name a usable directory fails fast with an error
naming the variable.  ``repro cache list|verify|gc`` (backed by
:func:`cache_entries` / :func:`verify_cache` / :func:`gc_cache`) inspect
and maintain a cache directory from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import types
import warnings
from dataclasses import dataclass
from stat import S_ISDIR
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.attacks.campaign import CampaignSpec, EpisodeSpec, as_episode_list
from repro.attacks.fi import FaultType
from repro.core.metrics import EpisodeResult, PathLike, load_results, save_results
from repro.safety.arbitration import InterventionConfig
from repro.sim.weather import FrictionCondition

#: Bump when the canonical forms below change shape, so stale cache entries
#: keyed under an old scheme can never be returned for a new-scheme query.
DIGEST_FORMAT = 1


def canonical_episode(spec: EpisodeSpec) -> Dict[str, object]:
    """JSON-safe canonical form of one :class:`EpisodeSpec`.

    Enums flatten to their string values and friction to ``(name, mu)`` so
    the form only contains primitives ``json.dumps`` orders stably.

    Scenario-family parameters join the form only when present: episodes
    of parameter-free families (the paper's S1-S6 grid) canonicalise
    exactly as they did before the family registry existed, so historical
    cache entries stay valid (the golden-digest test pins this).

    The form is round-trippable (:func:`episode_from_canonical`), which is
    what the distributed scheduler's worker spec files are built on.
    """
    form: Dict[str, object] = {
        "scenario_id": spec.scenario_id,
        "initial_gap": spec.initial_gap,
        "fault_type": spec.fault_type.value,
        "repetition": spec.repetition,
        "seed": spec.seed,
        "friction": None
        if spec.friction is None
        else {"name": spec.friction.name, "mu": spec.friction.mu},
    }
    if spec.params:
        form["params"] = dict(spec.params)
    return form


def episode_from_canonical(form: Dict[str, object]) -> EpisodeSpec:
    """Rebuild an :class:`EpisodeSpec` from :func:`canonical_episode` output.

    The inverse the scheduler's shard-spec files rely on: a worker process
    reconstructs its episode slice from the JSON document and re-derives
    the digest, so scheduler and worker provably agree on campaign
    identity.  ``params`` order is preserved (JSON objects keep insertion
    order), which matters — parameter order is part of the identity.

    Raises:
        ValueError: a missing key or an unknown enum value.
    """
    try:
        friction = form["friction"]
        return EpisodeSpec(
            scenario_id=str(form["scenario_id"]),
            # Numeric values pass through exactly as serialised: coercing
            # (e.g. float(60) for a spec built with an int gap) would make
            # the reconstructed episode canonicalise differently from the
            # original, so scheduler and worker digests would disagree.
            initial_gap=form["initial_gap"],  # type: ignore[arg-type]
            fault_type=FaultType(form["fault_type"]),
            repetition=int(form["repetition"]),  # type: ignore[arg-type]
            seed=int(form["seed"]),  # type: ignore[arg-type]
            friction=None
            if friction is None
            else FrictionCondition(
                name=str(friction["name"]), mu=friction["mu"]
            ),
            params=tuple((form.get("params") or {}).items()),
        )
    except KeyError as exc:
        raise ValueError(f"episode document is missing key {exc}") from None


def canonical_interventions(config: InterventionConfig) -> Dict[str, object]:
    """JSON-safe canonical form of an :class:`InterventionConfig`.

    Every field participates — including ``name``, which becomes the
    intervention label stored in each result record, so two configs that
    simulate identically but label differently must not share a cache entry.
    Round-trippable via :func:`interventions_from_canonical`.
    """
    return {
        "driver": config.driver,
        "safety_check": config.safety_check,
        "aeb": config.aeb.value,
        "ml": config.ml,
        "driver_reaction_time": config.driver_reaction_time,
        "aeb_overrides_driver": config.aeb_overrides_driver,
        "name": config.name,
    }


def interventions_from_canonical(form: Dict[str, object]) -> InterventionConfig:
    """Rebuild an :class:`InterventionConfig` from its canonical form.

    Raises:
        ValueError: a missing key or an unknown AEBS configuration value.
    """
    from repro.safety.aebs import AebsConfig

    try:
        return InterventionConfig(
            driver=bool(form["driver"]),
            safety_check=bool(form["safety_check"]),
            aeb=AebsConfig(form["aeb"]),
            ml=bool(form["ml"]),
            driver_reaction_time=form["driver_reaction_time"],  # type: ignore[arg-type]
            aeb_overrides_driver=bool(form["aeb_overrides_driver"]),
            name=str(form["name"]),
        )
    except KeyError as exc:
        raise ValueError(f"interventions document is missing key {exc}") from None


def factory_token(ml_factory: Optional[object]) -> Optional[str]:
    """Stable fingerprint of an ML controller factory, or None.

    Preference order: an explicit ``digest_token`` attribute (see
    :class:`repro.ml.mitigation.MitigationFactory`, which hashes its trained
    weights), then the qualified name for *stateless* callables — plain
    module-level functions and classes.  Everything else returns None and
    callers must skip caching rather than risk serving wrong results:
    lambdas and closures have no stable identity, and an arbitrary factory
    *instance* can carry state (e.g. trained weights) its class name does
    not capture, so two instances of the same class must not share a key.
    """
    if ml_factory is None:
        return None
    token = getattr(ml_factory, "digest_token", None)
    if token is not None:
        return str(token)
    if not isinstance(
        ml_factory, (types.FunctionType, types.BuiltinFunctionType, type)
    ):
        return None
    qualname = ml_factory.__qualname__
    module = ml_factory.__module__
    if "<" in qualname:  # <lambda>, <locals>: not stable across edits
        return None
    return f"callable:{module}.{qualname}"


def campaign_digest(
    campaign: Union[CampaignSpec, Sequence[EpisodeSpec]],
    interventions: InterventionConfig,
    ml_token: Optional[str] = None,
    max_steps: Optional[int] = None,
) -> str:
    """SHA-256 content digest of everything that determines campaign results.

    A :class:`CampaignSpec` digests as its enumerated episode list, so a
    spec and its pre-enumerated episodes produce the same key — and a shard
    slice keys differently from the full campaign automatically.

    Args:
        campaign: a spec or a pre-enumerated (possibly sharded) episode list.
        interventions: the safety configuration under test.
        ml_token: fingerprint of the ML arm (see :func:`factory_token`);
            required to be non-None by callers when ``interventions.ml``.
        max_steps: the episode horizon the campaign runs with.  The
            payload's ``"platform"`` object is ``{"max_steps": N}``, or
            empty for None (the paper horizon).

    Returns:
        A 64-character lowercase hex digest.
    """
    episodes = as_episode_list(campaign)
    payload = {
        "format": DIGEST_FORMAT,
        "episodes": [canonical_episode(e) for e in episodes],
        "interventions": canonical_interventions(interventions),
        "ml": ml_token,
        "platform": {} if max_steps is None else {"max_steps": max_steps},
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #


class CampaignCache:
    """A directory of completed campaigns keyed by content digest.

    Entries are plain campaign JSONL files (``<digest>.jsonl``), so every
    existing tool — ``CampaignResult.load``, ``repro merge``, manual
    inspection — works on cache entries directly, and remote workers and
    the report pipeline share entries through one directory.

    The contract consumers rely on:

    * keys are lowercase hex content digests (:func:`campaign_digest`);
    * :meth:`get` returns the complete result list or None — a corrupt or
      truncated entry is discarded and reported as a miss;
    * :meth:`put` is atomic from a reader's point of view: a concurrent
      :meth:`get` sees the old entry, no entry, or the new entry — never
      a torn one;
    * recomputing on a miss is always safe, so entries may be dropped at
      any time (corruption, ``repro cache gc``).

    Args:
        root: cache directory; created if missing (unless ``create=False``).
        create: set False for read-only consumers (status probes): the
            directory is left untouched and a missing one simply yields
            misses.  ``put`` requires the directory to exist.

    Raises:
        NotADirectoryError: ``root`` exists and is not a directory, or lies
            under a path that is not one (read as an empty cache, it would
            pass every check vacuously).
    """

    def __init__(self, root: PathLike, create: bool = True) -> None:
        self.root = str(root)
        try:
            mode: Optional[int] = os.stat(self.root).st_mode
        except FileNotFoundError:
            mode = None  # a missing directory is an empty cache
        except NotADirectoryError:
            raise NotADirectoryError(
                f"{self.root!r} lies under a path that is not a directory"
            ) from None
        if mode is not None and not S_ISDIR(mode):
            raise NotADirectoryError(f"{self.root!r} exists and is not a directory")
        if create:
            os.makedirs(self.root, exist_ok=True)

    def path(self, key: str) -> str:
        """Filesystem path of the entry for ``key`` (whether or not present)."""
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys are lowercase hex digests, got {key!r}")
        return os.path.join(self.root, f"{key}.jsonl")

    def get(self, key: str) -> Optional[List[EpisodeResult]]:
        """Return the cached results for ``key``, or None on a miss.

        A corrupt or truncated entry (e.g. the process died before the
        atomic rename semantics existed, or the file was hand-edited) is
        deleted and reported as a miss: recomputing is always safe, serving
        a partial campaign as complete never is.
        """
        path = self.path(key)
        if not os.path.exists(path):
            return None
        try:
            return load_results(path, strict=True)
        except (ValueError, OSError) as exc:
            warnings.warn(
                f"discarding corrupt cache entry {path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def put(self, key: str, results: Sequence[EpisodeResult]) -> str:
        """Store ``results`` under ``key``; returns the entry path.

        Written to a temp file then ``os.replace``-d into place, so
        concurrent readers (other shards, other machines on a shared
        filesystem) never observe a partial entry.
        """
        path = self.path(key)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:16]}-", suffix=".tmp", dir=self.root
        )
        os.close(fd)
        try:
            save_results(results, tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return path

    def entry_count(self, key: str) -> Optional[int]:
        """Record count of the entry for ``key``, or None when absent.

        A plain line count — no records are parsed — so staleness probes
        (``repro report-status`` runs one per campaign arm) stay cheap even
        over large caches.  A corrupt entry therefore *counts* here; the
        authoritative :meth:`get` still discards it on actual use, so the
        worst case is an optimistic status display, never wrong results.
        """
        path = self.path(key)
        try:
            with open(path, "rb") as handle:
                return sum(1 for line in handle if line.strip())
        except (FileNotFoundError, NotADirectoryError):
            return None

    def keys(self) -> List[str]:
        """Digests of every entry currently in the cache, sorted."""
        try:
            names = sorted(os.listdir(self.root))
        except (FileNotFoundError, NotADirectoryError):
            return []
        return [
            name[: -len(".jsonl")]
            for name in names
            if name.endswith(".jsonl") and not name.startswith(".")
        ]

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path(key))

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(root={self.root!r}, entries={len(self)})"


def complete_hit(
    cache: CampaignCache, key: str, total: int, label: str
) -> Optional[List[EpisodeResult]]:
    """The entry for ``key`` if it may stand in for running the campaign.

    The one rule for accepting a cache hit: the entry holds exactly
    ``total`` records and every record carries the campaign's
    intervention ``label``.  Anything else is a miss, so an entry
    written under this key by another arm is never served as this one.
    """
    hit = cache.get(key)
    if hit is None or len(hit) != total or any(r.intervention != label for r in hit):
        return None
    return hit


def default_cache(create: bool = True) -> Optional[CampaignCache]:
    """The environment-configured cache: ``REPRO_CACHE_DIR``, or None.

    An empty value disables caching, matching the unset behaviour.
    ``create`` is forwarded to :class:`CampaignCache` (read-only consumers
    pass False so a status query never materialises the directory).

    Raises:
        ValueError: ``REPRO_CACHE_DIR`` names something that cannot be
            used as a cache directory (e.g. an existing file).  The
            message names the variable — a misconfigured environment must
            fail fast, not as a traceback deep inside a campaign run.
    """
    # Cache *location* only — never part of any digest.
    root = os.environ.get("REPRO_CACHE_DIR")  # repro-lint: disable=env-read-in-canonical
    if not root:
        return None
    try:
        return CampaignCache(root, create=create)
    except OSError as exc:
        raise ValueError(
            f"REPRO_CACHE_DIR must name a usable cache directory, got "
            f"{root!r} ({exc})"
        ) from None


def resolve_cache(
    setting: Union[CampaignCache, None, bool]
) -> Optional[CampaignCache]:
    """Resolve the tri-state ``cache`` argument of the public entry points.

    ``None``/``True`` defer to :func:`default_cache` (``REPRO_CACHE_DIR``),
    ``False`` disables caching outright, and a :class:`CampaignCache`
    passes through.  ``run_campaign`` and ``dispatch_campaign`` resolve
    it once; every layer below them takes the resolved cache or None.
    """
    if setting is None or setting is True:
        return default_cache()
    if setting is False:
        return None
    return setting


# --------------------------------------------------------------------- #
# Cache maintenance (``repro cache list | verify | gc``)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CacheEntryInfo:
    """One cache entry as reported by ``repro cache list``.

    Attributes:
        key: the full content digest.
        path: the entry's JSONL file.
        episodes: record count (cheap line count, like ``entry_count``).
        size_bytes: file size on disk.
        age_seconds: seconds since the entry was last written.
    """

    key: str
    path: str
    episodes: int
    size_bytes: int
    age_seconds: float


def cache_entries(
    cache: CampaignCache, now: Optional[float] = None
) -> List[CacheEntryInfo]:
    """Inventory of every entry in a directory cache, sorted by key.

    Read-only: entries that vanish mid-scan (a concurrent ``gc``) are
    skipped rather than raised.
    """
    if now is None:
        # Age maintenance is inherently wall-clock; ``now`` is injectable
        # for tests and never enters an entry key or digest.
        now = time.time()  # repro-lint: disable=wall-clock-digest
    entries: List[CacheEntryInfo] = []
    for key in cache.keys():
        path = cache.path(key)
        try:
            stat = os.stat(path)
            count = cache.entry_count(key) or 0
        except OSError:
            continue
        entries.append(
            CacheEntryInfo(
                key=key,
                path=path,
                episodes=count,
                size_bytes=stat.st_size,
                age_seconds=max(0.0, now - stat.st_mtime),
            )
        )
    return entries


def verify_cache(cache: CampaignCache) -> Dict[str, Optional[str]]:
    """Strict-load every entry; map each key to None (ok) or its error.

    Unlike :meth:`CampaignCache.get`, verification is **read
    only** — a corrupt entry is reported, never deleted (that is ``gc``'s
    job, and the operator may want to inspect the bytes first).  An entry
    fails when it does not strict-load, or when its records carry mixed
    intervention labels (two campaigns concatenated into one entry).
    """
    report: Dict[str, Optional[str]] = {}
    for key in cache.keys():
        path = cache.path(key)
        try:
            results = load_results(path, strict=True)
        except (ValueError, OSError) as exc:
            report[key] = str(exc)
            continue
        labels = {r.intervention for r in results}
        if len(labels) > 1:
            report[key] = (
                f"mixed intervention labels {sorted(labels)} in one entry"
            )
        else:
            report[key] = None
    return report


def gc_cache(
    cache: CampaignCache,
    keep_days: float,
    now: Optional[float] = None,
) -> Tuple[List[str], int]:
    """Delete entries older than ``keep_days`` days; the only writing
    maintenance operation.

    Also sweeps orphaned ``.<digest>-*.tmp`` files older than the cutoff —
    the leftovers of writers killed between ``mkstemp`` and ``os.replace``.

    Returns:
        ``(removed keys, reclaimed bytes)``; temp-file sweeps count toward
        the byte total but not the key list.
    """
    if keep_days < 0:
        raise ValueError(f"keep_days must be >= 0, got {keep_days}")
    if now is None:
        # Age maintenance is inherently wall-clock; ``now`` is injectable
        # for tests and never enters an entry key or digest.
        now = time.time()  # repro-lint: disable=wall-clock-digest
    cutoff = now - keep_days * 86400.0
    removed: List[str] = []
    reclaimed = 0
    for key in cache.keys():
        path = cache.path(key)
        try:
            stat = os.stat(path)
        except OSError:
            continue
        if stat.st_mtime < cutoff:
            try:
                os.remove(path)
            except OSError:
                continue
            removed.append(key)
            reclaimed += stat.st_size
    try:
        names = sorted(os.listdir(cache.root))
    except (FileNotFoundError, NotADirectoryError):
        names = []
    for name in names:
        if not (name.startswith(".") and name.endswith(".tmp")):
            continue
        path = os.path.join(cache.root, name)
        try:
            stat = os.stat(path)
            if stat.st_mtime < cutoff:
                os.remove(path)
                reclaimed += stat.st_size
        except OSError:
            continue
    return removed, reclaimed


def resume_entry_path(directory: PathLike, digest: str) -> str:
    """The digest-named resume file path inside ``directory``.

    The single definition of the naming scheme (``<digest[:16]>.jsonl``)
    shared by the CLI grid commands and the report pipeline, so both always
    resume the same campaign from the same file.  Pure path arithmetic —
    read-only consumers (``repro report-status``) must be able to probe
    without touching the filesystem.
    """
    return os.path.join(str(directory), f"{digest[:16]}.jsonl")


def resume_file_for(directory: PathLike, digest: str) -> str:
    """:func:`resume_entry_path`, creating ``directory`` if missing.

    The write-side variant used before a campaign actually resumes into
    the file.
    """
    os.makedirs(directory, exist_ok=True)
    return resume_entry_path(directory, digest)


def write_digest_sidecar(path: PathLike, digest: str) -> str:
    """Record ``digest`` next to a campaign JSONL file (``<path>.digest``).

    The sidecar lets resume detect that a file was written under different
    inputs (horizon, interventions, grid) even though the
    episode records themselves cannot carry that information — the JSONL
    format stays byte-identical across serial/shard/cache paths.
    """
    sidecar = f"{os.fspath(path)}.digest"
    with open(sidecar, "w", encoding="utf-8") as handle:
        handle.write(digest + "\n")
    return sidecar


def read_digest_sidecar(path: PathLike) -> Optional[str]:
    """The digest recorded by :func:`write_digest_sidecar`, or None.

    Missing sidecars are normal (hand-built or pre-sidecar files) and mean
    "unknown", not "mismatch".
    """
    sidecar = f"{os.fspath(path)}.digest"
    try:
        with open(sidecar, "r", encoding="utf-8") as handle:
            return handle.read().strip() or None
    except (FileNotFoundError, NotADirectoryError):
        return None
