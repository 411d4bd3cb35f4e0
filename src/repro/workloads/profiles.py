"""The seven evaluation applications (paper Table II), parameterized.

Each profile describes an application's storage-access pattern; the
builder turns it into an :class:`~repro.faas.app.AppSpec` whose function
handlers generate that pattern:

- a request targets an *entity* (hotel, train, user feed ...) drawn from
  a Zipf distribution — this is the input Concord's coherence-aware
  scheduling hashes on;
- every workflow step reads the previous step's hand-off blob from
  storage (functions must communicate through storage, Section I);
- steps read entity-linked items plus popular app-global items, and
  write back a subset (overall 80 % reads / 20 % writes with 5 %
  read-only objects, the Azure distribution the paper uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import KB
from repro.faas.app import AppSpec, FunctionSpec
from repro.storage import DataItem
from repro.workloads.distributions import SizeSampler, ZipfSampler, is_read_only


@dataclass(frozen=True)
class AppProfile:
    """Parameterization of one benchmark application."""

    name: str
    #: Workflow length (functions per request).
    functions: int
    #: Entity-linked reads per function.
    reads_per_fn: int
    #: Entity-linked writes per function (on top of hand-off writes).
    writes_per_fn: int
    #: Compute per function, milliseconds.
    compute_ms: float
    #: Number of entities (Zipf keyspace).
    entities: int
    #: Zipf skew of entity popularity.
    zipf_alpha: float
    #: Item-size scale relative to the default small-object mix.
    size_scale: float = 1.0
    #: Items attached to each entity.
    items_per_entity: int = 4
    #: Fraction of reads that target app-global (cross-entity) items.
    global_read_fraction: float = 0.25
    #: Number of app-global items.
    global_items: int = 64
    #: Probability that each potential write actually happens (tunes the
    #: overall mix to the paper's ~80 % reads / 20 % writes, counting the
    #: mandatory hand-off writes between workflow stages).
    write_prob: float = 0.35
    #: Fraction of writes that target shared app-global items (drives the
    #: cross-node sharing that makes invalidations happen, Figure 9).
    global_write_fraction: float = 0.1


# Profiles calibrated so that, with the paper's latency constants, the
# no-cache storage share of response time spans ~35-93% (Figure 1) and
# read-heavy small-item apps (TrainT, SocNet, HotelBook) benefit most
# from Concord.  Media apps (ImgProc, VidProc) move larger blobs and
# spend more time computing.
ALL_PROFILES: dict[str, AppProfile] = {
    profile.name: profile
    for profile in (
        AppProfile("TrainT", functions=3, reads_per_fn=6, writes_per_fn=1,
                   compute_ms=8.0, entities=200, zipf_alpha=1.1),
        AppProfile("eShop", functions=4, reads_per_fn=5, writes_per_fn=1,
                   compute_ms=30.0, entities=300, zipf_alpha=1.0),
        AppProfile("ImgProc", functions=3, reads_per_fn=3, writes_per_fn=1,
                   compute_ms=120.0, entities=400, zipf_alpha=0.9,
                   size_scale=8.0),
        AppProfile("VidProc", functions=4, reads_per_fn=2, writes_per_fn=1,
                   compute_ms=250.0, entities=300, zipf_alpha=0.9,
                   size_scale=16.0),
        AppProfile("HotelBook", functions=3, reads_per_fn=6, writes_per_fn=1,
                   compute_ms=10.0, entities=150, zipf_alpha=1.2),
        AppProfile("MediaServ", functions=4, reads_per_fn=5, writes_per_fn=1,
                   compute_ms=25.0, entities=250, zipf_alpha=1.1),
        AppProfile("SocNet", functions=5, reads_per_fn=7, writes_per_fn=1,
                   compute_ms=6.0, entities=100, zipf_alpha=1.3),
    )
}


def entity_key(app: str, entity: int, item: int) -> str:
    return f"{app}:e{entity}:i{item}"


def handoff_key(app: str, entity: int, stage: int) -> str:
    return f"{app}:e{entity}:stage{stage}"


def global_key(app: str, index: int) -> str:
    return f"{app}:g{index}"


def _entity_rows(app: str, entity: int, items_per_entity: int,
                 sizes: SizeSampler) -> list:
    """``(key, read_only, size)`` of each item attached to ``entity``."""
    return [(key, is_read_only(key), sizes.size_of(key))
            for item in range(items_per_entity)
            for key in (entity_key(app, entity, item),)]


def _make_handler(profile: AppProfile, stage: int, sizes: SizeSampler,
                  entity_items: list, global_items: list):
    """Build the handler generator-function for workflow step ``stage``.

    All key strings, read-only flags and item sizes are pure functions of
    the profile, so they are precompiled into lookup tables instead of
    being re-derived (f-strings + md5 hashes) on every invocation.  The
    ``(key, read_only, size)`` rows of the entity and app-global items
    are built once per app by :func:`build_app` and shared by all its
    stages; each stage owns only its hand-off keys.  The RNG draw
    sequence inside the handler is exactly the one the non-tabled
    version made — same calls, same order — so workloads are
    byte-identical.
    """
    app = profile.name
    last_stage = profile.functions - 1
    per_op_compute = profile.compute_ms / max(1, profile.reads_per_fn + 2)
    tail_compute = 2 * per_op_compute
    reads_per_fn = profile.reads_per_fn
    writes_per_fn = profile.writes_per_fn
    global_read_fraction = profile.global_read_fraction
    global_write_fraction = profile.global_write_fraction
    write_prob = profile.write_prob
    items_per_entity = profile.items_per_entity
    stream_name = f"wl:{app}"
    zipf_globals = _globals_sampler(profile)

    # The hand-off keys and sizes this stage touches, one per entity id
    # below ``covered``.
    covered = profile.entities
    handoff_in = ([handoff_key(app, entity, stage - 1)
                   for entity in range(covered)]
                  if stage > 0 else None)
    handoff_out = ([(key, sizes.size_of(key))
                    for entity in range(covered)
                    for key in (handoff_key(app, entity, stage),)]
                   if stage < last_stage else None)

    def _fill_rows(entity: int) -> None:
        # Out-of-profile entity id (callers may inject arbitrary inputs):
        # extend the app's shared rows (another stage may have already)
        # and this stage's own hand-off tables, exactly as built above.
        nonlocal covered
        if entity < 0:
            raise ValueError(f"negative entity id {entity} for app {app!r}")
        while len(entity_items) <= entity:
            entity_items.append(_entity_rows(
                app, len(entity_items), items_per_entity, sizes))
        while covered <= entity:
            if handoff_in is not None:
                handoff_in.append(handoff_key(app, covered, stage - 1))
            if handoff_out is not None:
                key = handoff_key(app, covered, stage)
                handoff_out.append((key, sizes.size_of(key)))
            covered += 1

    def handler(ctx):
        rng = ctx.sim.rng.stream(stream_name)
        rng_random = rng.random
        entity = int(ctx.inputs.get("entity", 0))
        if not 0 <= entity < covered:
            _fill_rows(entity)
        my_items = entity_items[entity]

        if handoff_in is not None:
            yield from ctx.read(handoff_in[entity])
        for _ in range(reads_per_fn):
            yield from ctx.compute(per_op_compute)
            if rng_random() < global_read_fraction:
                key = global_items[zipf_globals.sample(rng)][0]
            else:
                key = my_items[rng.randrange(items_per_entity)][0]
            yield from ctx.read(key)
        for _ in range(writes_per_fn):
            if rng_random() >= write_prob:
                continue
            if rng_random() < global_write_fraction:
                key, read_only, size = global_items[zipf_globals.sample(rng)]
            else:
                key, read_only, size = my_items[rng.randrange(items_per_entity)]
            if read_only:
                # 5 % of objects are read-only; read instead of writing.
                yield from ctx.read(key)
            else:
                yield from ctx.write(
                    key, DataItem((key, ctx.invocation_id), size))
        if handoff_out is not None:
            key, size = handoff_out[entity]
            yield from ctx.write(key, DataItem((key, ctx.invocation_id), size))
        yield from ctx.compute(tail_compute)
        return entity

    handler.__name__ = f"{app}_f{stage}"
    return handler


_GLOBAL_SAMPLERS: dict[str, ZipfSampler] = {}


def _globals_sampler(profile: AppProfile) -> ZipfSampler:
    sampler = _GLOBAL_SAMPLERS.get(profile.name)
    if sampler is None:
        sampler = ZipfSampler(profile.global_items, alpha=1.0)
        _GLOBAL_SAMPLERS[profile.name] = sampler
    return sampler


_SIZE_SAMPLERS: dict[float, SizeSampler] = {}


def _sizes(profile: AppProfile) -> SizeSampler:
    """The size sampler of ``profile``'s size scale: one key -> size memo
    per scale, shared by :func:`build_app` and :func:`working_set`, so
    wiring an app hashes each key once."""
    sampler = _SIZE_SAMPLERS.get(profile.size_scale)
    if sampler is None:
        sampler = SizeSampler(scale=profile.size_scale)
        _SIZE_SAMPLERS[profile.size_scale] = sampler
    return sampler


def build_app(profile: AppProfile) -> AppSpec:
    """Turn a profile into a deployable application."""
    app = profile.name
    sizes = _sizes(profile)
    entity_items = [
        _entity_rows(app, entity, profile.items_per_entity, sizes)
        for entity in range(profile.entities)]
    global_items = [
        (key, is_read_only(key), sizes.size_of(key))
        for index in range(profile.global_items)
        for key in (global_key(app, index),)]
    spec = AppSpec(name=app)
    for stage in range(profile.functions):
        spec.add_function(FunctionSpec(
            name=f"{app}-f{stage}",
            handler=_make_handler(profile, stage, sizes, entity_items,
                                  global_items),
        ))
    return spec


def working_set(profile: AppProfile) -> dict:
    """The app's initial key -> DataItem working set."""
    sizes = _sizes(profile)
    items = {}
    for entity in range(profile.entities):
        for item in range(profile.items_per_entity):
            key = entity_key(profile.name, entity, item)
            items[key] = DataItem((key, 0), sizes.size_of(key))
    for index in range(profile.global_items):
        key = global_key(profile.name, index)
        items[key] = DataItem((key, 0), sizes.size_of(key))
    return items


def preload_storage(storage, profile: AppProfile) -> int:
    """Populate global storage with the app's working set; returns count."""
    items = working_set(profile)
    storage.preload(items)
    return len(items)


def entity_inputs_factory(profile: AppProfile, sim, stream: Optional[str] = None):
    """Per-request inputs: a Zipf-popular entity id."""
    sampler = ZipfSampler(profile.entities, alpha=profile.zipf_alpha)
    rng = sim.rng.stream(stream or f"entities:{profile.name}")

    def factory(_index: int) -> dict:
        return {"entity": sampler.sample(rng)}

    return factory
