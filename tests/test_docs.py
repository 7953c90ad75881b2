"""README's experiment configs run as documented, and the files it names exist."""

import re
from pathlib import Path

import pytest

from transel.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

# Each JSON config block is followed at once by the shell block that runs it.
_CONFIG_AND_COMMAND = re.compile(r"```json\n(.*?)```\s*```sh\n(.*?)```", re.S)
_EXAMPLES = _CONFIG_AND_COMMAND.findall(README)


def test_every_config_block_has_its_command():
    assert len(_EXAMPLES) == README.count("```json") >= 2


@pytest.mark.parametrize("config, command", _EXAMPLES,
                         ids=[re.search(r"--config (\S+)", cmd).group(1) for _, cmd in _EXAMPLES])
def test_config_block_runs_through_its_subcommand(tmp_path, capsys, config, command):
    subcommand, name = re.fullmatch(r"transel (\S+) --config (\S+) --out \S+\n", command).groups()
    path = tmp_path / name
    path.write_text(config)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--replicates", "2", "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
    assert f"wrote {out / 'summary.json'}" in capsys.readouterr().out


def test_named_scripts_exist():
    named = set(re.findall(r"scripts/[\w./-]*\w", README))
    assert named
    assert [p for p in sorted(named) if not (ROOT / p).is_file()] == []
