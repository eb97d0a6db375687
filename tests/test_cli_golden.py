"""Golden outputs of every subcommand: exit code, stdout, stderr and every
file a run writes, hashed together.  Each case runs in an empty working
directory with relative paths, so the bytes do not depend on where the
tests run.  A step is either an argv list or a ``(name, text)`` file to
write before the next command."""

import hashlib
import json

import pytest

from superconc.cli import build_parser, main

# 2 inputs, 2 outputs and the edges X1->Y1, X2->Y2 only: {X1} -> {Y2} has no path
BROKEN = json.dumps(
    {
        "nodes": [
            {"role": r, "level": 0, "label": [r[0], i]}
            for i, r in enumerate(["input", "input", "output", "output"])
        ],
        "edges": [[0, 2], [1, 3]],
        "inputs": [0, 1],
        "outputs": [2, 3],
        "levels": [],
    }
)
SC8 = "build-sc --n 8 --base 4 --expander complete --output g.json".split()
SC40 = "build-sc --n 40 --seed 3 --output g.json".split()
PLR = "--n 6 --ell 2 --r 3 --d 2".split()

CASES = {
    "certify-pair-json": (
        ["certify-pair --grid 40 --print-json".split()],
        0, "5ed248bc05dcacece8f25be0cf39225cadd807de7342f12fdcae4d4da9b05202",
    ),
    "certify-pair-output": (
        ["certify-pair --grid 40 --confirm --slack-csv l.csv --output c.json".split()],
        0, "0dfbd27b422efc4abfb9d9b84f2cfd197c57bbc29143f436fba6dcd8ed39eb64",
    ),
    "certify-pair-fail": (
        ["certify-pair --grid 30 --margin 0.5".split()],
        1, "b0cd47a3b17edaf93b8fb0246ab915d568278c54b10e21410cc416b219e9fa70",
    ),
    "certify-pair-usage": (
        ["certify-pair --p 1.5 --grid 10".split()],
        2, "860f8daf8a319c2a3e01ac1f79f467e5bbc78a7d30b40545702a380da7f42c34",
    ),
    "certify-expansion-json": (
        ["certify-expansion --grid 20 --print-json".split()],
        0, "e581c0e719655f57d0e9915c2ce28f740da4b9c2f40a4cd005d46efea5727ff4",
    ),
    "certify-expansion-output": (
        ["certify-expansion --grid 20 --confirm --slack-csv l.csv --output c.json".split()],
        0, "e1abe418e644e6151425917ea9792ac07cca685e59996f464f131536ba6aa70e",
    ),
    "certify-expansion-fail": (
        ["certify-expansion --grid 20 --margin 0.5 --print-json".split()],
        1, "5e163ed1708f3e3bba99b54b1c1d8853d2226826cfc7df679553138a7256e07b",
    ),
    "certify-expansion-usage": (
        ["certify-expansion --boost -0.5 --grid 10".split()],
        2, "55011ac12db4a59b80891e9138837ac9c646f0002562e2a36afb3c8ccb69346a",
    ),
    "check-conditions-json": (
        ["check-conditions --print-json".split()],
        0, "dbe58eeb10e5c1fa10797ab0be845a08f536fb508fe183618568b67cc27df62f",
    ),
    "check-conditions-output": (
        ["check-conditions --output c.json".split()],
        0, "43ace6f73a6670eb70ee1f1611a31f7e42884ff5e690798d9b35e2d2243ddf48",
    ),
    "check-conditions-fail": (
        ["check-conditions --gamma 2 --print-json".split()],
        1, "d72cd90a1495172fb99b674c29f7bd12795112fa75b2ffc8a02ecf70f670fd55",
    ),
    "check-conditions-low-degree": (
        ["check-conditions --d 3 --print-json".split()],
        1, "8cef445ddd42378b2f6d5c539e15d4cef898141077a42d6eff895b0a1ccfdff6",
    ),
    "check-conditions-usage": (
        ["check-conditions --c1 0.3 --c3 0.3".split()],
        2, "3e046220ab38418e870ae3d5c78b5e256b94974871e9353f72ab84b16efd5c06",
    ),
    "sample-expander-stdout": (
        ["sample-expander --n 12 --d 3 --delta 1/4 --seed 4".split()],
        0, "0721cdaec85f854e11c0d21b601367a22819fd6c3c05c8617a59ae1dbe6e5b41",
    ),
    "sample-expander-output": (
        ["sample-expander --n 30 --seed 6 --disjoint --output g.txt --dot g.dot".split()],
        0, "6c7af11251ff5f5284df81256baf824189cd5e218da5caacade1d27aa9615c41",
    ),
    "sample-expander-usage": (
        ["sample-expander --n 4 --disjoint".split()],
        2, "019a49a8a53663c4c3e037d32499eab92c7dea9690bcb7a476cc862be473c727",
    ),
    "check-expansion-json": (
        ["check-expansion --k-max 3 --pairs --print-json".split()],
        0, "3bb46182a8d383a8cdc4cba6a10e0e890a56b1cca419cd1e75594660411344ab",
    ),
    "check-expansion-output": (
        ["check-expansion --k-max 4 --pairs --budget 5000 --output r.json".split()],
        0, "8c75a6c6fc334afd0459c82ba9df48797011e24d876b056699f17bdbb82d19b2",
    ),
    "check-expansion-fail": (
        [
            "sample-expander --n 12 --d 1 --delta 0 --output g.txt".split(),
            "check-expansion --graph g.txt --k-max 3 --print-json".split(),
        ],
        1, "a64fbfec5a02f097467b21e667b546d122d9985733dd6169450e7c55c8393e3c",
    ),
    "check-expansion-profile": (
        [
            ("p.txt", "0 0\n1/4 1/2\n1/2 3/4\n1 1\n"),
            "check-expansion --n 16 --seed 2 --profile p.txt --k-max 3".split(),
        ],
        0, "2ee6aeda3a96865f7b4c42dc3f5168150abfb37cd5cbdfda58edd617997bd406",
    ),
    "check-expansion-usage": (
        ["check-expansion --k-max 0".split()],
        2, "999ffaec0759c0858a7bea420ee011f5438a047ee440415813397690f29d1674",
    ),
    "build-sc-json": (
        ["build-sc --n 40 --seed 3 --print-json".split()],
        0, "cb40bf16eeff6f9d81a36da21e8aae57216b640234b5d338508df7a4b0e92aa2",
    ),
    "build-sc-output": (
        [SC40 + "--report m.json --dot g.dot".split()],
        0, "5b30645fd2051d8ae926b6ca4b9a2b5500ceb5c112c58848c154fab3a0ac7ffb",
    ),
    "build-sc-fail": (
        ["build-sc --n 16 --base 4 --d 1 --delta 0 --retries 2 --output g.json".split()],
        1, "5aabb0923e3b5f2f17fe5a2e8c2ab5f416a67566a92cb98377f049ccf52bdbb0",
    ),
    "build-sc-usage": (
        ["build-sc --n 30".split()],
        2, "3395b6da399a491b9616509d574efa945ef6f3761a4e780ddc2f00f50a29f763",
    ),
    "verify-sc-json": (
        [SC8, "verify-sc --graph g.json --mode exhaustive --print-json".split()],
        0, "0b23df0da239a05f744d401f83a0c970e3996e9184a97f453665f02b0d44fbc2",
    ),
    "verify-sc-output": (
        [SC40, "verify-sc --graph g.json --trials 50 --seed 2 --output v.json".split()],
        0, "4537c84055e6b68f9eec01153911da3a4945c13bccbe1d7c2a3a121dbc0d7430",
    ),
    "verify-sc-fail": (
        [("b.json", BROKEN), "verify-sc --graph b.json --mode exhaustive".split()],
        1, "90dd21a9d2d09fbd7e2c9423bfebe950237517bbc8d753ad5f5d8f067bc59bc0",
    ),
    "verify-sc-usage": (
        ["verify-sc --graph absent.json".split()],
        2, "b32c4512b26f629bc17f08fcfa0d2f6c045dabcc0ca242e2f48a7ae599057d32",
    ),
    "prob-bound-json": (
        ["prob-bound --kind pair --n 8 --d 1 --delta 0 --k 2 --m 2 --print-json".split()],
        0, "efee2b289eba1c636dcdc4e31231831fcb09749533ea18fa229e78e513130463",
    ),
    "prob-bound-output": (
        ["prob-bound --kind expansion --n 200 --k 20 --m 1 --output b.json".split()],
        0, "f3d0d503087de88ff646ef970f7281e1122db91dd95ec02995e51e8aaecbd04d",
    ),
    "prob-bound-usage": (
        ["prob-bound --kind pair --n 8 --k 2 --m 2 --delta 0.6".split()],
        2, "e833f297cd155d22ed4066466f346e3d15915b90345983248c89e3cccb480075",
    ),
    "exact-plr-json": (
        [["exact-plr", *PLR, "--print-json"]],
        0, "c7e1815d36d8dcb2db10f0558c8764edee29e8ece8d91d2c4cbd40feb126d3ae",
    ),
    "exact-plr-output": (
        ["exact-plr --n 20 --ell 3 --r 8 --d 5 --output e.json".split()],
        0, "c99141712e7259a74742d4057096264ce7b453192c653474decccf8019ebd77b",
    ),
    "exact-plr-usage": (
        ["exact-plr --n 6 --ell 7 --r 3 --d 2".split()],
        2, "5fb1dcda730411fecd4050b44f6e5aed809c6029be747e51715d41f424fe7610",
    ),
    "mc-plr-json": (
        [["mc-plr", *PLR, "--trials", "2000", "--print-json"]],
        0, "fb6ca97194d9c276674074cc8e897b342cc818b93b106987a5b1c1d4cd36c485",
    ),
    "mc-plr-output": (
        [["mc-plr", *PLR, "--trials", "500", "--seed", "9", "--output", "m.json"]],
        0, "ce8cfe5ee6559ac5597dcf9a8e1a75cf016000d2e3b11426df6a8324817458ab",
    ),
    "mc-plr-usage": (
        [["mc-plr", *PLR, "--trials", "0"]],
        2, "0fcc4984ba057f8bd26d0bc5e0d3a7e3d4f237682c8c20ad9991afbb453fb970",
    ),
    "stirling-scan-json": (
        ["stirling-scan --n 64 --print-json".split()],
        0, "62d5182e5f325e712067b8278c6174c3e0c2939f36adc63a13d2ceedcd03ac60",
    ),
    "stirling-scan-output": (
        ["stirling-scan --n 128 256 --output s.json".split()],
        0, "2e860d5f4a43a5f53dbf2aac273fb601390d4fa7b7dcc9a2d91bd8437e789b37",
    ),
    "stirling-scan-usage": (
        ["stirling-scan --n 128 1".split()],
        2, "0fa59c424d1da22f7160e6fe736eb411679da326b25b884b4f492b65c81cf316",
    ),
}


def _digest(steps, tmp_path, capsys):
    """The last exit code and one SHA-256 over every step's exit code,
    stdout and stderr and over the files left in the directory."""
    digest = hashlib.sha256()
    rc = None
    for step in steps:
        if isinstance(step, tuple):
            (tmp_path / step[0]).write_text(step[1])
            continue
        try:
            rc = main(step)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        digest.update(json.dumps([rc, captured.out, captured.err]).encode())
    for path in sorted(tmp_path.iterdir()):
        digest.update(json.dumps([path.name, path.read_text()]).encode())
    return rc, digest.hexdigest()


@pytest.mark.parametrize("steps, rc, want", list(CASES.values()), ids=list(CASES))
def test_cli_golden(steps, rc, want, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _digest(steps, tmp_path, capsys) == (rc, want)


def test_golden_table_covers_every_subcommand():
    subs = build_parser()._subparsers._group_actions[0].choices
    covered = {steps[-1][0] for steps, _, _ in CASES.values()}
    assert covered == set(subs)


@pytest.mark.parametrize("command", sorted(build_parser()._subparsers._group_actions[0].choices))
def test_every_subcommand_prints_its_help(command, capsys):
    # argparse formats a help string only when help is shown, so a bad
    # %-placeholder in one would go unnoticed until a user asked for it
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: superconc {command}")
