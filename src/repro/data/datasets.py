"""Synthetic stand-ins for the paper's evaluation datasets.

The paper evaluates on two public datasets we cannot download in this
offline environment:

* **SDSS** — 100K tuples, 8 photometric attributes of sky objects
  (``rowc, colc, ra, dec, sky_u, sky_g, sky_r, sky_i``), following the
  setting of DSM (Huang et al., VLDB'19).
* **CAR** — 50K tuples of second-hand-car listings from eBay, 5 commonly
  used numeric attributes.

Every algorithm in the paper (clustering, GMM/JKC encoding, hull-based UIS
construction, NN/SVM classification) consumes only the *numeric geometry*
of the attribute space — no semantics.  We therefore generate synthetic
tables whose marginals reproduce the qualitative shapes of the originals
(documented per attribute below): CCD pixel coordinates are near-uniform
with edge vignetting, sky coordinates follow survey-stripe mixtures, sky
background fluxes are correlated and unimodal-with-tails, car prices and
mileages are heavy-tail skewed, registration years are multimodal, etc.
This preserves the behaviours the experiments measure: multimodality (GMM
vs JKC encodings), attribute correlation, cluster structure, and density
variation across the space.
"""

from __future__ import annotations

import numpy as np

from .schema import Attribute, Table

__all__ = ["make_sdss", "make_car", "load_dataset", "DATASET_BUILDERS",
           "build_dataset_store", "DATASET_BACKENDS"]


def _stamp_provenance(table, builder, n_rows, seed):
    table.provenance = {
        "builder": str(builder),
        "n_rows": int(n_rows),
        "seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
    }
    return table


def _mixture(rng, n, specs):
    """Sample n values from a list of (weight, mean, std) Gaussians."""
    weights = np.array([s[0] for s in specs], dtype=np.float64)
    weights /= weights.sum()
    comps = rng.choice(len(specs), size=n, p=weights)
    means = np.array([s[1] for s in specs])
    stds = np.array([s[2] for s in specs])
    return rng.normal(means[comps], stds[comps])


def make_sdss(n_rows=100_000, seed=17):
    """Synthetic SDSS photometric table (100K x 8 by default).

    Attribute shapes modelled on the SkyServer PhotoObjAll documentation:

    * ``rowc, colc``: CCD pixel centroids, near-uniform over the frame with
      slight central concentration (objects avoid frame edges).
    * ``ra``: right ascension; the survey footprint concentrates in a few
      contiguous stripes -> trimodal mixture over [0, 360).
    * ``dec``: declination; most coverage near the celestial equator with a
      northern cap -> bimodal.
    * ``sky_u/g/r/i``: sky background flux in four bands; unimodal with a
      bright-sky tail, strongly correlated across bands (shared sky
      brightness factor).
    """
    rng = np.random.default_rng(seed)
    frame_rows, frame_cols = 1489.0, 2048.0
    rowc = np.clip(rng.beta(1.3, 1.3, n_rows) * frame_rows, 0, frame_rows)
    colc = np.clip(rng.beta(1.3, 1.3, n_rows) * frame_cols, 0, frame_cols)
    ra = _mixture(rng, n_rows, [(0.45, 180.0, 35.0),
                                (0.35, 330.0, 20.0),
                                (0.20, 30.0, 15.0)]) % 360.0
    dec = _mixture(rng, n_rows, [(0.7, 0.0, 12.0), (0.3, 45.0, 10.0)])
    dec = np.clip(dec, -25.0, 70.0)
    # Shared sky-brightness factor drives the four band backgrounds.
    sky_common = rng.gamma(shape=8.0, scale=1.0, size=n_rows)
    def band(offset, scale, noise):
        return offset + scale * sky_common + rng.normal(0, noise, n_rows)
    sky_u = band(2.0, 0.25, 0.35)
    sky_g = band(1.5, 0.45, 0.40)
    sky_r = band(1.2, 0.65, 0.45)
    sky_i = band(1.0, 0.85, 0.55)

    attributes = [
        Attribute("rowc", hint="interval"),
        Attribute("colc", hint="interval"),
        Attribute("ra", hint="modal"),
        Attribute("dec", hint="modal"),
        Attribute("sky_u", hint="modal"),
        Attribute("sky_g", hint="modal"),
        Attribute("sky_r", hint="modal"),
        Attribute("sky_i", hint="modal"),
    ]
    data = np.column_stack([rowc, colc, ra, dec, sky_u, sky_g, sky_r, sky_i])
    return _stamp_provenance(Table("SDSS", attributes, data),
                             "sdss", n_rows, seed)


def make_car(n_rows=50_000, seed=29):
    """Synthetic eBay used-car table (50K x 5 by default).

    * ``price``: log-normal (heavy right tail), depressed by mileage/age.
    * ``mileage_km``: gamma-like, bounded, with odometer clustering.
    * ``year``: registration year, multimodal (popular model years).
    * ``power_ps``: engine power, trimodal (city / mid / performance).
    * ``engine_cc``: displacement, clustered at manufacturer steps.
    """
    rng = np.random.default_rng(seed)
    year = np.round(_mixture(rng, n_rows, [(0.3, 2003.0, 2.0),
                                           (0.45, 2009.0, 2.5),
                                           (0.25, 2014.0, 1.5)]))
    year = np.clip(year, 1990, 2016)
    age = 2016.0 - year
    mileage = rng.gamma(shape=2.2, scale=28_000.0, size=n_rows) \
        + age * rng.normal(9_000.0, 1_500.0, n_rows)
    mileage = np.clip(mileage, 0, 400_000.0)
    power = _mixture(rng, n_rows, [(0.4, 75.0, 12.0),
                                   (0.45, 125.0, 20.0),
                                   (0.15, 220.0, 40.0)])
    power = np.clip(power, 30.0, 500.0)
    engine = np.round(_mixture(rng, n_rows, [(0.35, 1400.0, 120.0),
                                             (0.40, 1900.0, 150.0),
                                             (0.25, 2800.0, 350.0)]) / 100.0
                      ) * 100.0
    engine = np.clip(engine, 600.0, 6000.0)
    base_price = np.exp(rng.normal(9.3, 0.55, n_rows))
    price = base_price * np.exp(-0.09 * age) \
        * np.exp(-mileage / 450_000.0) * (power / 120.0) ** 0.5
    price = np.clip(price, 150.0, 150_000.0)

    attributes = [
        Attribute("price", hint="modal"),
        Attribute("mileage_km", hint="interval"),
        Attribute("year", hint="modal"),
        Attribute("power_ps", hint="modal"),
        Attribute("engine_cc", hint="modal"),
    ]
    data = np.column_stack([price, mileage, year, power, engine])
    return _stamp_provenance(Table("CAR", attributes, data),
                             "car", n_rows, seed)


DATASET_BUILDERS = {"sdss": make_sdss, "car": make_car}

DATASET_BACKENDS = ("memory", "store")


def load_dataset(name, n_rows=None, seed=None, backend="memory",
                 chunk_rows=None, directory=None):
    """Build a dataset by name ('sdss' or 'car'), with optional overrides.

    Parameters
    ----------
    n_rows, seed:
        Builder overrides (``n_rows`` scales the synthetic table to any
        size; defaults are the paper's 100K / 50K).
    backend:
        ``"memory"`` returns the usual in-memory
        :class:`~repro.data.schema.Table`; ``"store"`` returns the same
        rows — bit for bit, same builder RNG stream — chunked into a
        :class:`~repro.store.ChunkStore` (on disk when ``directory`` is
        given), so benchmarks and examples opt into the chunked substrate
        without code changes.  For tables too large to materialize even
        once, use :func:`build_dataset_store`, which generates
        chunk-by-chunk at constant memory.
    """
    if backend not in DATASET_BACKENDS:
        raise ValueError("unknown backend {!r}; options: {}".format(
            backend, DATASET_BACKENDS))
    try:
        builder = DATASET_BUILDERS[name.lower()]
    except KeyError:
        raise ValueError("unknown dataset {!r}; options: {}".format(
            name, sorted(DATASET_BUILDERS))) from None
    kwargs = {}
    if n_rows is not None:
        kwargs["n_rows"] = n_rows
    if seed is not None:
        kwargs["seed"] = seed
    table = builder(**kwargs)
    if backend == "memory":
        return table
    return table.to_store(chunk_rows=chunk_rows, directory=directory)


def build_dataset_store(name, n_rows, seed=None, chunk_rows=None,
                        directory=None, block_rows=None):
    """Generate a synthetic dataset chunk-by-chunk at constant memory.

    The scalable counterpart of ``load_dataset(..., backend="store")``:
    instead of materializing the full table once, the named builder runs
    per block over seeds spawned from ``np.random.SeedSequence(seed)``,
    and each completed chunk is written (or frozen) before the next block
    is generated — peak memory is O(block + chunk) regardless of
    ``n_rows``.  The result is deterministic in ``(name, n_rows, seed,
    block_rows)`` but is its *own* dataset: per-block RNG streams differ
    from the single-stream ``make_*`` tables of the same size.
    """
    from ..store import DEFAULT_CHUNK_ROWS, ChunkStore

    try:
        builder = DATASET_BUILDERS[name.lower()]
    except KeyError:
        raise ValueError("unknown dataset {!r}; options: {}".format(
            name, sorted(DATASET_BUILDERS))) from None
    n_rows = int(n_rows)
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    chunk_rows = int(chunk_rows or DEFAULT_CHUNK_ROWS)
    block_rows = int(block_rows or chunk_rows)
    n_blocks = max(1, -(-n_rows // block_rows)) if n_rows else 0
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    template = builder(n_rows=1, seed=0)

    def blocks():
        remaining = n_rows
        for child in children:
            rows = min(block_rows, remaining)
            remaining -= rows
            yield builder(n_rows=rows, seed=child).data

    store = ChunkStore.from_blocks(
        template.name, template.attributes, blocks(),
        chunk_rows=chunk_rows, directory=directory)
    store.provenance = {"builder": name.lower(), "n_rows": n_rows,
                        "seed": None if seed is None else int(seed),
                        "block_rows": block_rows, "chunked": True}
    if directory is not None:
        store._write_manifest()   # re-stamp with the final provenance
    return store
