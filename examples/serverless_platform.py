#!/usr/bin/env python3
"""A complete serverless deployment: custom app + schedulers compared.

Defines a small image-tagging application (3 functions passing data
through storage), deploys it on an 8-node simulated FaaS cluster with a
Concord cache, and compares random scheduling against Concord's
coherence-aware scheduling (CAS) under Poisson load.

Run:  python examples/serverless_platform.py
"""

from repro.config import KB
from repro.faas import AppSpec, CasScheduler, FaasPlatform, FunctionSpec, RandomScheduler
from repro.session import Session
from repro.storage import DataItem
from repro.workloads import ZipfSampler

NUM_IMAGES = 50


def build_image_tagger() -> AppSpec:
    """fetch -> classify -> publish, chained through storage."""

    def fetch(ctx):
        image = ctx.inputs["entity"]
        yield from ctx.read(f"images:{image}:blob")
        yield from ctx.compute(3.0)
        yield from ctx.write(
            f"images:{image}:scaled", DataItem(("scaled", image), 8 * KB))
        return image

    def classify(ctx):
        image = ctx.inputs["entity"]
        yield from ctx.read(f"images:{image}:scaled")
        yield from ctx.read("models:labels")          # hot shared item
        yield from ctx.compute(12.0)
        yield from ctx.write(
            f"images:{image}:tags", DataItem(("tags", image), 1 * KB))
        return image

    def publish(ctx):
        image = ctx.inputs["entity"]
        tags = yield from ctx.read(f"images:{image}:tags")
        yield from ctx.compute(2.0)
        yield from ctx.write(
            f"feed:{image}", DataItem(("post", tags.payload), 2 * KB))
        return f"published {image}"

    spec = AppSpec(name="tagger")
    spec.add_function(FunctionSpec("fetch", fetch))
    spec.add_function(FunctionSpec("classify", classify))
    spec.add_function(FunctionSpec("publish", publish))
    return spec


def run_deployment(scheduler_name: str) -> dict:
    s = Session(nodes=8, cores_per_node=4, seed=99, app="tagger")
    sim, cluster, concord = s.sim, s.cluster, s.system

    s.preload({
        **{f"images:{i}:blob": DataItem(("raw", i), 64 * KB)
           for i in range(NUM_IMAGES)},
        "models:labels": DataItem("label-set-v7", 12 * KB),
    })

    scheduler = CasScheduler() if scheduler_name == "cas" else RandomScheduler(sim)
    platform = FaasPlatform(cluster, scheduler=scheduler)
    app = platform.deploy(build_image_tagger(), concord)

    popularity = ZipfSampler(NUM_IMAGES, alpha=1.1)
    rng = sim.rng.stream("demo-arrivals")

    def inputs_factory(_index):
        return {"entity": popularity.sample(rng)}

    sim.spawn(platform.open_loop("tagger", rps=60.0, duration_ms=5000.0,
                                 inputs_factory=inputs_factory))
    sim.run(until=10_000.0)

    mix = concord.stats.read_mix()
    return {
        "requests": app.requests_completed,
        "mean_ms": app.latency.mean,
        "p99_ms": app.latency.p99,
        "local_hit_pct": 100 * mix["local_hit"],
        "storage_pct": 100 * app.storage_fraction,
    }


def main() -> None:
    print(f"image-tagger app, 8 nodes, 60 RPS Poisson, Zipf-{1.1} popularity\n")
    results = {name: run_deployment(name) for name in ("random", "cas")}
    header = f"{'scheduler':10s} {'requests':>9s} {'mean':>9s} {'p99':>9s} {'local-hit':>10s}"
    print(header)
    for name, stats in results.items():
        print(f"{name:10s} {stats['requests']:9d} {stats['mean_ms']:8.1f}m "
              f"{stats['p99_ms']:8.1f}m {stats['local_hit_pct']:9.1f}%")
    gain = 1 - results["cas"]["mean_ms"] / results["random"]["mean_ms"]
    print(f"\ncoherence-aware scheduling cut mean latency by {100 * gain:.0f}% "
          f"by routing same-image requests to the same cache instance.")


if __name__ == "__main__":
    main()
