"""The README quickstart runs as written: each of its ``avfuse`` commands
exits 0 through ``cli.main``, so a renamed flag cannot leave it stale;
every flag the README names anywhere is a flag of some subcommand; and every
``model.*`` and ``train.*`` key it names is a setting of that run-config
section."""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

from avfuse.cli import _SECTIONS, EXIT_OK, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
SHORT_TRAIN = ["--epochs", "1", "--warmup-epochs", "1"]  # later flags win


def quickstart_commands() -> list[list[str]]:
    """The argv of each ``avfuse`` command in the README's Quickstart shell
    block, with ``\\`` continuations joined and comments dropped."""
    section = README.read_text().split("## Quickstart", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("avfuse ")]


def test_quickstart_commands_exit_zero(tmp_path, monkeypatch, capsys):
    commands = quickstart_commands()
    assert [argv[0] for argv in commands] == ["synth", "train", "eval", "infer", "gradcheck"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = argv + SHORT_TRAIN if argv[0] == "train" else argv
        code = main(argv)
        assert code == EXIT_OK, (argv, capsys.readouterr().err)


def test_every_flag_the_readme_names_exists():
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    flags = {flag for sub in subparsers.choices.values() for action in sub._actions
             for flag in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text()))
    assert named - flags == {"--no-build-isolation"}  # pip's, in *Install and test*


def test_every_setting_the_readme_names_exists():
    named = set(re.findall(r"`(model|train)\.([a-z][a-z0-9_]*)`", README.read_text()))
    assert ("train", "augment") in named
    settable = {section: {f.name for f in dataclasses.fields(_SECTIONS[section])
                          if f.default is not dataclasses.MISSING}
                for section in ("model", "train")}
    assert sorted(f"{section}.{key}" for section, key in named
                  if key not in settable[section]) == []
