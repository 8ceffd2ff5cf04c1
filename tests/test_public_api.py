"""Public-API surface checks: imports, __all__ consistency, paper defaults."""

import importlib
import importlib.util

import pytest

PACKAGES = ["repro", "repro.nn", "repro.ml", "repro.geometry", "repro.data",
            "repro.core", "repro.baselines", "repro.explore", "repro.bench",
            "repro.serve", "repro.persist", "repro.store", "repro.train",
            "repro.shard", "repro.obs"]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_all_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    for symbol in module.__all__:
        assert hasattr(module, symbol), "{}.{} missing".format(name, symbol)


def test_importing_every_module_leaves_scipy_unloaded():
    """scipy is imported by the first hull of three or more dimensions
    and by nothing else: a fresh interpreter that imports ``repro``, every
    subpackage and every module under them has not loaded it."""
    import os
    import subprocess
    import sys

    import repro
    code = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__,\n"
        "                                               'repro.')\n"
        "         if not m.name.endswith('__main__')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "assert {} <= set(names), sorted(names)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n"
    ).format(set(PACKAGES) - {"repro"})
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_top_level_exports():
    import repro
    assert repro.LTE is not None
    assert repro.LTEConfig is not None
    assert isinstance(repro.__version__, str)


def test_nn_has_one_executor():
    """No backend switch is exported; the one name the end-to-end
    benchmark imports for its environment record still resolves."""
    from repro import nn
    from repro.nn.compile import get_backend
    assert get_backend().name == "reference"
    assert not [name for name in nn.__all__ if "backend" in name]


def test_src_has_no_autograd():
    """The autograd graph is a test oracle (``tests/nn/_autograd_oracle.py``)
    and nothing else: ``src/`` neither imports it nor any test module,
    ships no ``Tensor`` engine, and its modules hold parameters without a
    forward of their own -- training is the step program, prediction the
    inference kernel."""
    import ast
    import pathlib
    import re

    import repro
    from repro import nn
    from repro.core import UISClassifier

    oracle = re.compile(r"\b_\w+_oracle\b")     # _graph_oracle, ...
    root = pathlib.Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and id(node) not in docstrings:
                assert not oracle.search(node.value), (path, node.value)
                continue
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "tests", (path, name)
                assert not oracle.search(name), (path, name)
    assert importlib.util.find_spec("repro.nn.tensor") is None
    assert not {"Tensor", "no_grad", "is_grad_enabled"} & set(dir(nn))
    assert not hasattr(nn.Parameter, "backward")
    assert not hasattr(nn.Parameter, "__matmul__")
    for cls in (nn.Module, UISClassifier):
        assert not hasattr(cls, "forward"), cls
        assert not callable(cls.__new__(cls)), cls


def test_serve_reexports_no_batched_classifier():
    """A stack is leaf arrays (``repro.nn.batching.stack_leaves``): no
    stacked classifier or layer is left to build one another way, in
    ``repro.serve``, ``repro.nn`` or ``repro.nn.batching``."""
    import repro.nn
    import repro.nn.batching
    import repro.serve
    assert not hasattr(repro.serve, "BatchedUISClassifier")
    assert "BatchedUISClassifier" not in repro.serve.__all__
    for module in (repro.nn, repro.nn.batching):
        for name in ("BatchedUISClassifier", "BatchedLinear",
                     "batch_modules", "unstack_modules", "load_flat_stack",
                     "grad_stacks", "stack_conversions"):
            assert not hasattr(module, name), (module.__name__, name)


def test_one_executor_per_job():
    """No option chooses between executors or asks for worker processes,
    and none is left to choose:
    outside the optimizers themselves ``optimizer.step()`` is written at
    exactly two sites in ``src/`` — the stacked local phase and the
    stacked pretrain epoch, each run at K = 1 for one task.  (The eager
    loops are test oracles: ``tests/train/_sequential_oracle.py``,
    ``tests/serve/_adapt_oracle.py``.)"""
    import inspect
    import pathlib

    import repro
    from repro.core import LTE, MetaTrainer
    from repro.nn import batching
    from repro.train import OfflineRun, engine, run_offline_training

    for function in (LTE.fit_offline, LTE.train_subspace, MetaTrainer.train,
                     MetaTrainer.evaluate, OfflineRun.__init__,
                     run_offline_training):
        parameters = inspect.signature(function).parameters
        assert not {"engine", "workers"} & set(parameters), \
            function.__qualname__
    # Training runs in one process: there is no worker pool to ask for.
    with pytest.raises(TypeError):
        LTE().fit_offline(None, workers=2)
    assert importlib.util.find_spec("repro.train.parallel") is None

    root = pathlib.Path(repro.__file__).parent
    sites = {path.relative_to(root).as_posix():
             path.read_text().count("optimizer.step()")
             for path in root.rglob("*.py") if path.name != "optim.py"}
    assert {name: count for name, count in sites.items() if count} == \
        {"nn/batching.py": 1, "train/engine.py": 1}
    assert "optimizer.step()" in inspect.getsource(
        batching.fused_local_adapt)
    assert "optimizer.step()" in inspect.getsource(
        engine.run_pretrain_epoch_pooled)


def test_persist_exports():
    """The checkpoint subsystem's full public surface is importable."""
    from repro import persist
    expected = {"CheckpointError", "SCHEMA_VERSION",
                "save_checkpoint", "load_checkpoint", "inspect_checkpoint",
                "save_pretrained", "load_pretrained",
                "save_pretrain_run", "load_pretrain_run",
                "save_session", "load_session",
                "save_manager", "load_manager", "dataset_provenance",
                "model_fingerprint"}
    assert expected == set(persist.__all__)
    assert issubclass(persist.CheckpointError, RuntimeError)
    assert isinstance(persist.SCHEMA_VERSION, int)
    # The state-dict protocol reaches every stateful layer.
    from repro import nn
    from repro.core import (ExplorationSession, FewShotOptimizer,
                            HullRegistry, MetaTrainer)
    from repro.serve import SessionManager
    for cls in (nn.Module, nn.Parameter, nn.SGD, nn.Adam, MetaTrainer):
        assert hasattr(cls, "state_dict")
        assert hasattr(cls, "load_state_dict")
    for cls in (FewShotOptimizer, ExplorationSession):
        assert hasattr(cls, "state_dict")
        assert hasattr(cls, "from_state_dict")
    assert hasattr(SessionManager, "snapshot")
    assert hasattr(SessionManager, "restore")
    assert hasattr(HullRegistry, "restore")
    # repro.persist is the one serialization subsystem: no pickle file
    # and no lone-trainer checkpoint beside it.
    from repro.core import LTE
    for cls in (LTE, MetaTrainer):
        assert not hasattr(cls, "save") and not hasattr(cls, "load")


def test_geometry_has_no_conjunction_class():
    """The full-space UIR is evaluated where it is served
    (``predict_conjunctions``, ``ConjunctiveOracle``), not by a region
    class of its own."""
    from repro import geometry
    assert not {"ConjunctiveRegion", "PackedRegion"} & set(geometry.__all__)


def test_every_public_symbol_has_docstring():
    for name in PACKAGES:
        module = importlib.import_module(name)
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, "{}.{} lacks a docstring".format(
                    name, symbol)


class TestPaperDefaults:
    """The library defaults must match the paper's Section VIII-A."""

    def test_lte_config_defaults(self):
        from repro.core import LTEConfig
        config = LTEConfig()
        assert config.ku == 100
        assert config.kq == 200
        assert config.delta == 5
        assert config.budget == 30
        assert config.embed_size == 100          # Ne = 100
        assert config.task_mode.alpha == 4       # generalized training mode
        assert config.task_mode.psi == 20
        assert config.subspace_dim == 2          # 2-D subspaces

    def test_meta_hyperparams_m_range(self):
        from repro.core.meta_training import MetaHyperParams
        assert MetaHyperParams().m in (2, 4, 6)  # the paper's search grid

    def test_paper_scale_preset(self):
        from repro.bench import get_scale
        paper = get_scale("paper")
        assert paper.n_tasks == 5000             # the paper's sweet point
        assert paper.dataset_rows == 100_000     # SDSS extract size

    def test_paper_modes_complete(self):
        from repro.core.uis import PAPER_MODES
        assert [PAPER_MODES[m].psi for m in
                ("M1", "M2", "M3", "M4")] == [20, 15, 10, 5]
        assert [PAPER_MODES[m].alpha for m in
                ("M5", "M6", "M7")] == [1, 2, 3]

    def test_variants_tuple(self):
        from repro.core import VARIANTS
        assert VARIANTS == ("basic", "meta", "meta_star")


def test_knob_catalogue():
    """Every ``REPRO_*`` switch read through ``os.environ`` outside the
    end-to-end benchmark (which only scans the prefix).  The two store
    bench knobs go with ``benchmarks/bench_store_scan.py`` once an e2e
    workload measures zone-map pruning."""
    import pathlib
    import re

    import repro

    root = pathlib.Path(repro.__file__).parents[2]
    read = re.compile(r"""os\.(?:environ(?:\.get)?\s*[(\[]|getenv\s*\()"""
                      r"""\s*["'](REPRO_[A-Z_]+)["']""")
    e2e = root / "benchmarks" / "e2e"
    knobs = {knob
             for folder in ("src", "examples", "benchmarks")
             for path in (root / folder).rglob("*.py")
             if e2e not in path.parents
             for knob in read.findall(path.read_text())}
    assert knobs == {"REPRO_STORE_MIN_SPEEDUP", "REPRO_STORE_BASELINE"}


def test_obs_has_no_mode_switch():
    """Metrics are always on: ``repro.obs`` exports no switch and a
    registry takes no mode argument."""
    import inspect

    from repro import obs

    for name in ("enabled", "configure", "enabled_scope"):
        assert name not in obs.__all__
        assert not hasattr(obs, name)
    assert list(inspect.signature(obs.MetricsRegistry).parameters) == []
    registry = obs.MetricsRegistry()
    registry.counter("a.b.c").inc(2)
    assert registry.value("a.b.c") == 2


def test_every_markdown_file_named_in_src_exists():
    """A docstring or comment in ``src/`` that sends the reader to a
    ``*.md`` file names one the repository holds (paths from its root)."""
    import pathlib
    import re

    import repro

    root = pathlib.Path(repro.__file__).parents[2]
    named = {(path.relative_to(root).as_posix(), name)
             for path in (root / "src").rglob("*.py")
             for name in re.findall(r"[\w./-]+\.md\b", path.read_text())}
    assert ("src/repro/nn/optim.py", "README.md") in named
    missing = sorted(pair for pair in named if not (root / pair[1]).is_file())
    assert not missing, missing
