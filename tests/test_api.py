"""The public surface: every exported name resolves, on first use, and none looks like a test."""

import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import qds_onedecoy
from qds_onedecoy import protocol

ROOT = pathlib.Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"
MODULES = ["qds_onedecoy"] + [
    f"qds_onedecoy.{info.name}" for info in pkgutil.iter_modules(qds_onedecoy.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_no_public_name_is_collected_as_a_test(name):
    # pytest collects an imported test_* function (or Test* class) as a test
    module = importlib.import_module(name)
    assert [attr for attr in vars(module) if attr.lower().startswith("test")] == []


def test_readme_layout_lists_only_public_names():
    # each entry of README's "Library layout" block: a module, its role,
    # then after the role's colon the names, each in the module's __all__
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library layout", 1)[1].split("```")[1]
    entries = re.split(r"^(?=qds_onedecoy\.)", block, flags=re.M)[1:]
    assert len(entries) == len(MODULES) - 1
    for entry in entries:
        module, _, text = entry.partition(" ")
        names = re.findall(r"\w+", text.partition(":")[2])
        assert names, module
        assert set(names) <= set(importlib.import_module(module).__all__), module


def _fresh(script: str) -> list[str]:
    # a fresh interpreter: this one has every layer loaded already
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.splitlines()


def test_reading_a_config_loads_five_modules():
    # measured against what numpy itself loads: numpy 1.x imports
    # numpy.random, and through secrets and hmac _hashlib, on `import numpy`
    script = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import qds_onedecoy\n"
        f"qds_onedecoy.read_config({str(ROOT / 'tests' / 'data' / 'device.cfg')!r})\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('qds_onedecoy.'))\n"
        "print(loaded(), '_hashlib' in set(sys.modules) - before)\n"
        "qds_onedecoy.optimize\n"
        "print(loaded())\n"
    )
    five = ["channel", "files", "finite_key", "security", "stat_math"]
    six = sorted(five + ["optimizer"])
    assert _fresh(script) == [
        str([f"qds_onedecoy.{name}" for name in five]) + " False",
        str([f"qds_onedecoy.{name}" for name in six]),
    ]


@pytest.mark.parametrize("argv, layers", [
    (["estimate", "--config", str(DATA / "device.cfg"),
      "--counts", str(DATA / "model_103km.csv")], []),
    (["rate-curve", "--config", str(DATA / "device.cfg"), "--from", "100", "--to", "101",
      "--grid-points", "2"], ["optimizer"]),
    (["simulate", "--config", str(DATA / "desk.cfg"), "--distance", "10"], ["protocol"]),
], ids=["estimate", "rate-curve", "simulate"])
def test_each_command_loads_only_its_layers(argv, layers):
    # of the optimizer and the protocol, only what the command runs; and
    # without the protocol no libcrypto, which its hashlib would load (and
    # which numpy 1.x loads itself, so it is not checked with the protocol)
    script = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from qds_onedecoy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "new = set(sys.modules) - before\n"
        "print(code, sorted(m for m in new if m.endswith(('.optimizer', '.protocol'))))\n"
        "print('_hashlib' in new)\n"
    )
    code_and_layers, libcrypto = _fresh(script)
    assert code_and_layers == "0 " + str([f"qds_onedecoy.{name}" for name in layers])
    if "protocol" not in layers:
        assert libcrypto == "False"


def test_each_submodule_resolves_after_a_bare_import():
    names = MODULES[1:]
    script = (
        "import importlib\n"
        "import qds_onedecoy\n"
        f"for name in {names!r}:\n"
        "    print(getattr(qds_onedecoy, name.rpartition('.')[2]) is importlib.import_module(name))\n"
        "print(qds_onedecoy.protocol.rng_stream.__module__, qds_onedecoy.security.SecurityTarget.__name__)\n"
    )
    assert _fresh(script) == ["True"] * len(names) + ["qds_onedecoy.protocol SecurityTarget"]


class TestPackageNames:
    def test_each_name_is_the_owning_module_object(self):
        for name in qds_onedecoy.__all__:
            if name == "__version__":
                continue
            owners = [
                module for module in MODULES[1:]
                if name in importlib.import_module(module).__all__
            ]
            assert owners, name
            for module in owners:
                assert getattr(importlib.import_module(module), name) is getattr(qds_onedecoy, name)

    def test_dir_lists_every_public_name(self):
        assert set(qds_onedecoy.__all__) <= set(dir(qds_onedecoy))
        # and what a module lists anyway: its dunders and loaded submodules
        assert {"__path__", "__file__", "protocol"} <= set(dir(qds_onedecoy))

    def test_unknown_name_raises_attribute_error_naming_the_module(self):
        with pytest.raises(AttributeError, match="'qds_onedecoy' has no attribute 'no_such_name'"):
            qds_onedecoy.no_such_name

    def test_a_patched_function_is_what_the_package_returns(self, monkeypatch):
        original = protocol.attack_forge

        def fake(*args, **kwargs):
            raise AssertionError("not called")

        monkeypatch.setattr(protocol, "attack_forge", fake)
        assert qds_onedecoy.attack_forge is fake
        monkeypatch.undo()
        assert qds_onedecoy.attack_forge is original
        assert set(vars(qds_onedecoy)) & set(qds_onedecoy.__all__) == {"__version__"}
