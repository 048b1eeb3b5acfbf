"""The README's library example runs as printed and agrees with the CLI;
its module map and the package's exports match the source tree."""

import re
from pathlib import Path

import numpy as np

import cellforest
from cellforest.cli import main
from cellforest.phantom import PhantomParams, generate_phantom
from cellforest.volume import ScalarVolume, write_volume

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(cellforest.__file__).resolve().parent


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_matches_cli(tmp_path, monkeypatch):
    img, _ = generate_phantom(
        PhantomParams(dims=(24, 24, 24), n_cells=6, noise_sigma=0.02, blur_sigma=0.5, seed=3)
    )
    # a 16-bit stack, as microscopes write them, so normalize has work to do
    stack = ScalarVolume(np.round(img.data * 3000 + 200).astype(np.uint16), img.spacing)
    write_volume(stack, str(tmp_path / "stack.mvol.json"))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    write_volume(scope["labels"], "readme.labels.mvol.json")
    assert main(["segment", "stack.mvol.json", "--output-prefix", "cli",
                 "--classifier", "heuristic", "--v-min-um3", "300", "--v-max-um3", "12000"]) == 0
    readme_raw = (tmp_path / "readme.labels.raw").read_bytes()
    assert readme_raw == (tmp_path / "cli.labels.raw").read_bytes()
    assert len(np.unique(scope["labels"].labels)) > 2


def test_every_exported_name_resolves():
    # the package exports what the library example imports, and segment loads
    # lazily through the package's __getattr__
    imported = re.search(r"^from cellforest import (.+)$", library_example(), re.MULTILINE)
    assert sorted(cellforest.__all__) == sorted([*imported.group(1).split(", "), "__version__"])
    missing = [name for name in cellforest.__all__ if not hasattr(cellforest, name)]
    assert missing == []


def test_module_map_lists_exactly_the_package_modules():
    block = README.read_text().split("```\nsrc/cellforest/\n", 1)[1].split("```", 1)[0]
    listed = re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)
    assert len(listed) == len(set(listed))
    modules = {p.name for p in PACKAGE.glob("*.py")} - {"__init__.py"}
    assert set(listed) == modules
