"""The benchmark's workloads: fixed lists of CLI invocations.

Each workload is a list of ops; one op is one call of
``sylvester.cli.main(argv)``.  The Monte Carlo sample counts are fixed
amounts of work; the seed is the benchmark's ``--seed`` argument, passed to
the program unchanged.  ``scale="tiny"`` shrinks every op for the
self-test; the timed benchmark always uses ``"full"``.

Why these three workloads: each module a later change may optimise does
most of the work in one of them and almost none in another.

* ``certify``: ``verify --case all``, the exact path.  ``poly``, ``combs``,
  ``segments`` (integrands) and ``certificates`` do all the work;
  ``bodies`` and ``montecarlo`` do none.  It has no seed.
* ``mc-plain``: ``theorem1 --check`` plus a triangle n = 8 estimate (the
  hull test dominates) and the disk n = 5 estimate at ``--workers`` 1 and
  2 (the single-worker baseline for parallel scaling, and the largest
  array, so the peak-memory op).  Float sampling and the hull test do the
  work; ``poly`` does none.
* ``mc-rb``: ``estimate --rb`` on the triangle and disk at n = 5 and the
  square at n = 4.  The exact conditional (``segments``, ``bodies.y_bounds``,
  ``montecarlo.rb_conditional``) dominates, on many small 2-variable
  polynomials with 2^-26-scale dyadic denominators, where ``certify`` runs
  large polynomials in 8 to 14 symbols with small denominators.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Samples per estimate, per op, at full scale.
FULL_SAMPLES = {
    "theorem1": 100_000,
    "triangle-n8": 25_000,
    "disk-n5-w1": 200_000,
    "disk-n5-w2": 200_000,
    "rb-triangle-n5": 50,
    "rb-disk-n5": 50,
    "rb-square-n4": 100,
}

TINY_SAMPLES = {
    "theorem1": 2_000,
    "triangle-n8": 4_000,
    "disk-n5-w1": 2_000,
    "disk-n5-w2": 2_000,
    "rb-triangle-n5": 4,
    "rb-disk-n5": 4,
    "rb-square-n4": 4,
}


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call.  ``samples`` is per estimate; 0 for
    ``verify``."""

    name: str
    argv: tuple
    samples: int = 0

    @property
    def command(self):
        return self.argv[0]


def _estimate(name, samples, seed, body, n, workers=1, rb=False):
    argv = ["estimate", "--body", body, "--n", str(n)]
    if rb:
        argv.append("--rb")
    argv += ["--samples", str(samples), "--seed", str(seed),
             "--workers", str(workers)]
    return Op(name, tuple(argv), samples)


def ops(workload, seed, scale="full"):
    """The op list of one pass of ``workload``."""
    samples = {"full": FULL_SAMPLES, "tiny": TINY_SAMPLES}[scale]
    if workload == "certify":
        return [Op("verify-all", ("verify", "--case", "all"))]
    if workload == "mc-plain":
        s = samples["theorem1"]
        return [
            Op("theorem1", ("theorem1", "--check", "--samples", str(s),
                            "--seed", str(seed), "--workers", "1"), s),
            _estimate("triangle-n8", samples["triangle-n8"], seed,
                      "triangle", 8),
            _estimate("disk-n5-w1", samples["disk-n5-w1"], seed, "disk", 5),
            _estimate("disk-n5-w2", samples["disk-n5-w2"], seed, "disk", 5,
                      workers=2),
        ]
    if workload == "mc-rb":
        return [
            _estimate("rb-triangle-n5", samples["rb-triangle-n5"], seed,
                      "triangle", 5, rb=True),
            _estimate("rb-disk-n5", samples["rb-disk-n5"], seed, "disk", 5,
                      rb=True),
            _estimate("rb-square-n4", samples["rb-square-n4"], seed,
                      "square", 4, rb=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("certify", "mc-plain", "mc-rb")
