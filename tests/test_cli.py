import gc
import hashlib
import json
import math
import os
import shlex
import statistics
import subprocess
import sys

import numpy as np
import pytest

from sievelab import DomainError, ResourceError, cli, intervals, sieve_core
from sievelab.cli import main
from sievelab.intervals import _chunk_bounds

from _oracles import shift_moments
from conftest import no_child_left


def run(args):
    return main([str(a) for a in args])


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_intervals_small(tmp_path):
    out = tmp_path / "o"
    assert run(["intervals", "--kmax", 3, "--out", out]) == 0
    lines = read_lines(out / "intervals.csv")
    assert lines[0] == "k,p_k,p_next,gap,length,pi_k,li_k,pnt_estimate"
    pis = [int(line.split(",")[5]) for line in lines[1:]]
    assert pis == [2, 5, 6]
    assert (out / "deviations.csv").exists()
    manifest = json.loads((out / "intervals.manifest.json").read_text())
    assert manifest["outputs"]["intervals.csv"] == sha(out / "intervals.csv")
    assert manifest["version"] == "0.1.0"


def test_intervals_kmax_zero_is_usage_error(tmp_path):
    assert run(["intervals", "--kmax", 0, "--out", tmp_path / "o"]) == 1


def test_unknown_flag_is_usage_error(tmp_path):
    assert run(["intervals", "--kmax", 3, "--frobnicate"]) == 1


def test_replay_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["intervals", "--kmax", 40, "--out", out]) == 0
    assert sha(a / "intervals.csv") == sha(b / "intervals.csv")
    assert sha(a / "deviations.csv") == sha(b / "deviations.csv")


def test_threads_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["intervals", "--kmax", 120, "--threads", 1, "--out", a,
                "--segment-size", 65536]) == 0
    assert run(["intervals", "--kmax", 120, "--threads", 2, "--out", b,
                "--segment-size", 65536]) == 0
    assert sha(a / "intervals.csv") == sha(b / "intervals.csv")


def test_checkpoint_resume_matches_single_shot(tmp_path):
    ck = tmp_path / "scan.ckpt"
    part = tmp_path / "part"
    full = tmp_path / "full"
    direct = tmp_path / "direct"
    assert run(["intervals", "--kmax", 30, "--out", part, "--checkpoint", ck]) == 0
    assert ck.exists()
    assert run(["intervals", "--kmax", 60, "--out", full, "--checkpoint", ck]) == 0
    assert run(["intervals", "--kmax", 60, "--out", direct]) == 0
    assert sha(full / "intervals.csv") == sha(direct / "intervals.csv")
    assert sha(full / "deviations.csv") == sha(direct / "deviations.csv")
    # Resuming past the end reuses the checkpoint without recomputation.
    again = tmp_path / "again"
    assert run(["intervals", "--kmax", 30, "--out", again, "--checkpoint", ck]) == 0
    assert sha(again / "intervals.csv") == sha(part / "intervals.csv")


def test_torn_checkpoint_tail_is_dropped_and_resumed(tmp_path, capsys):
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "part",
                "--checkpoint", ck]) == 0
    data = ck.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    ck.write_bytes(data[: last + (len(data) - last) // 2])  # cut the last line short
    capsys.readouterr()
    full, direct = tmp_path / "full", tmp_path / "direct"
    assert run(["intervals", "--kmax", 60, "--out", full, "--checkpoint", ck]) == 0
    assert "dropped torn line 30" in capsys.readouterr().err
    assert run(["intervals", "--kmax", 60, "--out", direct]) == 0
    assert sha(full / "intervals.csv") == sha(direct / "intervals.csv")
    assert sha(full / "deviations.csv") == sha(direct / "deviations.csv")
    assert [json.loads(line)["k"] for line in read_lines(ck)] == list(range(1, 61))


def test_checkpoint_missing_final_newline_is_kept(tmp_path):
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "part",
                "--checkpoint", ck]) == 0
    ck.write_bytes(ck.read_bytes().rstrip(b"\n"))
    full, direct = tmp_path / "full", tmp_path / "direct"
    assert run(["intervals", "--kmax", 60, "--out", full, "--checkpoint", ck]) == 0
    assert run(["intervals", "--kmax", 60, "--out", direct]) == 0
    assert sha(full / "intervals.csv") == sha(direct / "intervals.csv")
    assert [json.loads(line)["k"] for line in read_lines(ck)] == list(range(1, 61))


@pytest.mark.parametrize("line, corrupt", [
    (10, lambda text: text[:20]),   # unparseable, not the last line
    (10, lambda text: '{"k": 10}'),  # parses, but is not a record
    (30, lambda text: '{"k": 30}'),  # a complete last line is never dropped
    # The lines before the last are parsed as one array; each of these
    # still names its own line.
    (10, lambda text: text + ", " + text),  # two values on one line
    (10, lambda text: text[: text.index('"li_k"') + 3]),  # cut inside a string
    (10, lambda text: text[:-12]),  # cut inside a number
    (10, lambda text: "[1, 2"),  # an array left open
], ids=["unparseable-middle", "not-a-record", "bad-last-record", "two-values-one-line",
        "cut-in-a-string", "cut-in-a-number", "open-array"])
def test_corrupt_checkpoint_line_is_domain_error(tmp_path, capsys, line, corrupt):
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "part",
                "--checkpoint", ck]) == 0
    lines = read_lines(ck)
    lines[line - 1] = corrupt(lines[line - 1])
    ck.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = ck.read_bytes()
    capsys.readouterr()
    assert run(["intervals", "--kmax", 60, "--out", tmp_path / "o",
                "--checkpoint", ck]) == 2
    assert f"corrupt at line {line}" in capsys.readouterr().err
    assert ck.read_bytes() == before


@pytest.mark.parametrize("damage, line", [
    ({5: '{"k": 5}', 10: "{"}, 5),  # a bad record before an unparseable line
    ({20: "{", 30: '{"k": 3'}, 20),  # an unparseable line before a torn last line
], ids=["bad-record-first", "unparseable-before-torn-tail"])
def test_checkpoint_error_names_the_first_bad_line(tmp_path, capsys, damage, line):
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "part",
                "--checkpoint", ck]) == 0
    lines = read_lines(ck)
    for k, text in damage.items():
        lines[k - 1] = text
    ck.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = ck.read_bytes()
    capsys.readouterr()
    assert run(["bias", "--kmax", 60, "--out", tmp_path / "o", "--checkpoint", ck]) == 2
    assert f"corrupt at line {line}\n" in capsys.readouterr().err
    assert ck.read_bytes() == before


def test_blank_checkpoint_lines_are_skipped(tmp_path):
    ck = tmp_path / "scan.ckpt"
    assert run(["bias", "--kmax", 30, "--out", tmp_path / "clean", "--checkpoint", ck]) == 0
    lines = read_lines(ck)
    ck.write_text("\n".join(["", *lines[:10], "  ", "", *lines[10:], " \t"]) + "\n",
                  encoding="utf-8")
    before = ck.read_bytes()
    assert run(["bias", "--kmax", 30, "--out", tmp_path / "o", "--checkpoint", ck]) == 0
    assert ck.read_bytes() == before
    assert sha(tmp_path / "o" / "bias.csv") == sha(tmp_path / "clean" / "bias.csv")


def test_torn_tail_before_blank_lines_is_cut(tmp_path, capsys):
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "part",
                "--checkpoint", ck]) == 0
    lines = read_lines(ck)
    ck.write_text("\n".join([*lines[:29], lines[29][:40], "", "  "]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["corr", "--kmax", 60, "--out", tmp_path / "full", "--checkpoint", ck]) == 0
    assert "dropped torn line 30 of" in capsys.readouterr().err
    assert ck.read_bytes().startswith("\n".join(lines[:29]).encode() + b"\n{")
    assert [json.loads(line)["k"] for line in read_lines(ck)] == list(range(1, 61))
    assert run(["corr", "--kmax", 60, "--out", tmp_path / "direct"]) == 0
    assert sha(tmp_path / "full" / "corr.csv") == sha(tmp_path / "direct" / "corr.csv")


def test_reader_gives_the_last_record_its_newline(tmp_path):
    ck = tmp_path / "scan.ckpt"
    assert run(["conjecture", "--kmax", 30, "--out", tmp_path / "a", "--checkpoint", ck]) == 0
    data = ck.read_bytes()
    ck.write_bytes(data[:-1])
    assert run(["conjecture", "--kmax", 30, "--out", tmp_path / "b", "--checkpoint", ck]) == 0
    assert ck.read_bytes() == data
    assert sha(tmp_path / "b" / "conjecture.csv") == sha(tmp_path / "a" / "conjecture.csv")


def test_main_leaves_the_collector_unfrozen(tmp_path):
    # Only the program entry freezes the start-up heap; in-process callers
    # of main keep every object collectable.
    before = gc.get_freeze_count()
    assert run(["bias", "--kmax", 30, "--out", tmp_path / "o"]) == 0
    assert gc.get_freeze_count() == before


def test_non_numeric_checkpoint_value_is_domain_error(tmp_path, capsys):
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "part",
                "--checkpoint", ck]) == 0
    lines = read_lines(ck)
    lines[9] = json.dumps({**json.loads(lines[9]), "pi_k": "many"})
    ck.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["bias", "--kmax", 60, "--out", tmp_path / "o", "--checkpoint", ck]) == 2
    assert "a value is not a number" in capsys.readouterr().err


# The block size of the seam tests below: lines or rows 9..16 make the second block.
_SEAM = 8


def _one_shot_csv(columns):
    """The CSV bytes of ``columns`` formatted and joined in one piece."""
    cells = []
    for values in map(np.asarray, columns.values()):
        fmt = "{:.15g}".format if values.dtype.kind == "f" else str
        cells.append(map(fmt, values.tolist()))
    return ("\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n").encode("utf-8")


@pytest.mark.parametrize("rows", [0, 1, _SEAM - 1, _SEAM, _SEAM + 1, 3 * _SEAM + 5])
def test_csv_writer_blocks_join_to_the_one_shot_bytes(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", _SEAM)
    floats = [0.1, math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 1 / 3, 2.0]
    ints = [0, -1, 2 ** 63 - 1, -2 ** 63, 7]
    bigs = [2 ** 64, -(3 ** 50), 10 ** 30 + 1]
    texts = ["", "exhaustive", "\u03c0"]
    columns = {"f": np.array([floats[i % 9] for i in range(rows)], dtype=np.float64),
               "i": np.array([ints[i % 5] for i in range(rows)], dtype=np.int64),
               "big": [bigs[i % 3] * (i + 1) for i in range(rows)],
               "text": [texts[i % 3] for i in range(rows)]}
    path = tmp_path / "t.csv"
    data = _one_shot_csv(columns)
    assert cli._write_csv(path, columns) == hashlib.sha256(data).hexdigest()
    assert path.read_bytes() == data and len(data.splitlines()) == rows + 1
    assert list(tmp_path.iterdir()) == [path]  # no temp file left


def test_checkpoint_lines_are_the_json_of_their_records(tmp_path, monkeypatch):
    # Each line is formatted directly; it must be the text json.dumps writes
    # for the record's dict, across block seams, for ints near 2^62 and
    # floats whose shortest repr is subnormal, exponent or long.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", _SEAM)
    ints = [2 ** 62 - 1, 2 ** 62, 2 ** 62 + 12345, 1, 0, -(2 ** 62)]
    floats = [5e-324, 0.1, 1e16, 123456.789, 1e-07, 1e22, 2.0 ** 62, -0.0, 1 / 3, 2.5e-310]
    n = 3 * _SEAM + 5
    block = {}
    for j, (name, dtype) in enumerate(cli.IntervalSet.COLUMNS.items()):
        values = floats if dtype is np.float64 else ints
        block[name] = np.array([values[(i + j) % len(values)] for i in range(n)], dtype=dtype)
    ck = tmp_path / "scan.ckpt"
    k_from = 2 ** 62 - 7
    cli._checkpoint_append(ck, k_from, block)
    rows = zip(range(k_from, k_from + n), *(block[name].tolist() for name in block))
    assert read_lines(ck) == [json.dumps(dict(zip(cli._FIELDS, row))) for row in rows]
    ck.unlink()
    cli._checkpoint_append(ck, 1, block)
    loaded = cli._checkpoint_load(ck)
    for name, values in block.items():
        assert np.concatenate([b[name] for b in loaded]).tobytes() == values.tobytes(), name


@pytest.mark.parametrize("line", [_SEAM + 1, _SEAM + 4, 2 * _SEAM])
def test_checkpoint_corrupt_line_in_the_second_block_is_named(tmp_path, monkeypatch, capsys,
                                                              line):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", _SEAM)
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "part", "--checkpoint", ck]) == 0
    lines = read_lines(ck)
    not_a_number = json.dumps({**json.loads(lines[2]), "pi_k": "many"})
    for damage in ({line: lines[line - 1][:20]},  # unparseable
                   {line: '{"k": %d}' % line},  # parses, but is not a record
                   {3: not_a_number, line: "{"}):  # a bad line outranks a bad value before it
        ck.write_text("\n".join(damage.get(k, text) for k, text in enumerate(lines, 1)) + "\n",
                      encoding="utf-8")
        before = ck.read_bytes()
        capsys.readouterr()
        assert run(["bias", "--kmax", 60, "--out", tmp_path / "o", "--checkpoint", ck]) == 2
        assert f"corrupt at line {line}\n" in capsys.readouterr().err
        assert ck.read_bytes() == before


@pytest.mark.parametrize("records, blanks", [(_SEAM + 1, 0), (_SEAM + 4, 0), (2 * _SEAM, 0),
                                             (_SEAM, _SEAM + 1)])
def test_checkpoint_torn_tail_in_the_second_block_is_cut(tmp_path, monkeypatch, capsys,
                                                         records, blanks):
    # (_SEAM, _SEAM + 1): the torn line ends the first block, and the blank
    # lines after it fill the second and start a third.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", _SEAM)
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", records, "--out", tmp_path / "part",
                "--checkpoint", ck]) == 0
    data = ck.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    ck.write_bytes(data[: last + 30] + b"\n  " * blanks)
    capsys.readouterr()
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "full", "--checkpoint", ck]) == 0
    assert f"dropped torn line {records} of" in capsys.readouterr().err
    assert ck.read_bytes().startswith(data[:last] + b"{")
    assert [json.loads(line)["k"] for line in read_lines(ck)] == list(range(1, 31))
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "direct"]) == 0
    assert sha(tmp_path / "full" / "intervals.csv") == sha(tmp_path / "direct" / "intervals.csv")


@pytest.mark.parametrize("records", [_SEAM + 1, _SEAM + 4, 2 * _SEAM])
def test_checkpoint_missing_final_newline_in_the_second_block_is_repaired(tmp_path, monkeypatch,
                                                                          records):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", _SEAM)
    ck = tmp_path / "scan.ckpt"
    assert run(["conjecture", "--kmax", records, "--out", tmp_path / "a",
                "--checkpoint", ck]) == 0
    data = ck.read_bytes()
    ck.write_bytes(data[:-1])
    assert run(["conjecture", "--kmax", records, "--out", tmp_path / "b",
                "--checkpoint", ck]) == 0
    assert ck.read_bytes() == data
    assert sha(tmp_path / "b" / "conjecture.csv") == sha(tmp_path / "a" / "conjecture.csv")


def test_maier_command(tmp_path):
    out = tmp_path / "o"
    assert run(["maier", "--k", "50", "--lambda", 3, "--out", out]) == 0
    lines = read_lines(out / "maier_scan.csv")
    assert lines[0] == "k,x,ratio"
    manifest = json.loads((out / "maier.manifest.json").read_text())
    assert manifest["lambda"] == 3.0
    assert "delta_lambda" in manifest
    # A window that cannot fit is a domain error (exit 2).
    assert run(["maier", "--k", "3", "--lambda", 3, "--out", tmp_path / "bad"]) == 2


@pytest.mark.parametrize("lam", ["1e308", "-1e308"])
def test_maier_non_finite_window_is_domain_error(tmp_path, capsys, lam):
    # (log x)^1e308 overflows, (log x)^-1e308 underflows to 0; a non-finite
    # lambda is refused when parsed (test_bad_flag_value_is_usage_error).
    assert run(["maier", "--k", "50", f"--lambda={lam}", "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "domain error" in err and "Traceback" not in err


def test_maier_outputs_bytes_pinned(tmp_path):
    # sha256 recorded from the single-sieve scan that built a prefix array
    # over all of s_k, before the counts were streamed through the wheel.
    out = tmp_path / "o"
    assert run(["maier", "--k", "500,750,10000", "--lambda", 3, "--out", out]) == 0
    assert sha(out / "maier_scan.csv") == \
        "316259273ddd2733a0f88597e9bd0c3cf93fd231b7e0dfe8e9785bde94b8fa21"
    assert sha(out / "maier_summary.csv") == \
        "22830e666514e4938206334870261930b524eeff38b627c9eb5c932a7f5b1f65"


def test_maier_bad_k_token_is_usage_error(tmp_path, capsys):
    assert run(["maier", "--k", "5,x", "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "--k" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("k", [",", ""], ids=["comma", "blank"])
def test_maier_empty_k_list_is_usage_error(tmp_path, capsys, k):
    out = tmp_path / "o"
    assert run(["maier", "--k", k, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "--k" in err and "Traceback" not in err
    assert not out.exists()


_MINIMAL_ARGV = {
    "intervals": ["--kmax", 20], "bias": ["--kmax", 20], "corr": ["--kmax", 20, "--max-lag", 5],
    "conjecture": ["--kmax", 20], "legendre": ["--kmax", 20], "maier": ["--k", 30],
    "randmodel": ["--k", 5],
}


@pytest.mark.parametrize("argv", [
    *([command, "--seed", 1] for command in _MINIMAL_ARGV if command != "randmodel"),
    *([command, "--segment-size", 65536] for command in ("maier", "legendre", "randmodel")),
    ["maier", "--delta-band", 0.05],
], ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_flag_its_command_does_not_read_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run([argv[0], *_MINIMAL_ARGV[argv[0]], *argv[1:], "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[1]}" in err and "Traceback" not in err
    assert not out.exists()


def test_legendre_command(tmp_path):
    out = tmp_path / "o"
    assert run(["legendre", "--kmax", 12, "--out", out]) == 0
    scan = read_lines(out / "legendre_scan.csv")
    terms = read_lines(out / "legendre_terms.csv")
    assert scan[0] == "k,ratio_full,ratio_truncated,pi_ratio"
    assert terms[0] == "k,terms,l_k"
    assert len(scan) == len(terms) == 13
    row3 = terms[3].split(",")
    assert row3 == ["3", "8", "24"]


def test_randmodel_command_exhaustive(tmp_path):
    out = tmp_path / "o"
    assert run(["randmodel", "--k", 3, "--budget", 10 ** 9, "--out", out]) == 0
    lines = read_lines(out / "randmodel.csv")
    assert lines[0] == "k,mode,samples,mean,variance,binom_var,pois_var,seed"
    row = lines[1].split(",")
    assert row[0] == "3" and row[1] == "exhaustive" and row[2] == "30"
    assert row[3] == "6.4"
    hist = read_lines(out / "randmodel_hist.csv")
    assert hist[0] == "value,count"
    assert sum(int(line.split(",")[1]) for line in hist[1:]) == 30


def test_randmodel_command_sampled_seeded(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["randmodel", "--k", 12, "--budget", 200, "--seed", 9,
                    "--out", out]) == 0
    assert sha(a / "randmodel.csv") == sha(b / "randmodel.csv")
    row = read_lines(a / "randmodel.csv")[1].split(",")
    assert row[1] == "sampled" and row[2] == "200" and row[7] == "9"


def test_randmodel_sampled_bytes_pinned(tmp_path):
    # Digests recorded from the one-window-at-a-time sampler.
    out = tmp_path / "o"
    assert run(["randmodel", "--k", 200, "--budget", 2000, "--seed", 1, "--out", out]) == 0
    assert sha(out / "randmodel.csv") == \
        "8c33ba6dfb3bae6d91fac731ddfe2c7ebe1bbf205d95ff7710f43a327e3c99a2"
    assert sha(out / "randmodel_hist.csv") == \
        "2cff07fb42f49b13407ddd0a7a320e471ab987d85423626d6cc49972f1e446a9"


# sha256 recorded from the depth-first Legendre enumeration and the
# per-prime exhaustive striker. --kmax 200 covers both truncated-sum paths;
# --kmax 600 (the perfbench legendre_scan digests) sieves the context's mu
# up to p_601^2 - 1, about 1.95e7.
@pytest.mark.parametrize("argv, digests", [
    (["legendre", "--kmax", 200], {
        "legendre_scan.csv": "48552bbe2ad1b8633d1b882b2035f4d865045df9feb2248da4004d43200dfa8e",
        "legendre_terms.csv": "9fae08c2202f4f60fa983e130aeb08234c799b0a9ecaa5011a2977a5f426f58b"}),
    (["legendre", "--kmax", 600], {
        "legendre_scan.csv": "7d123118ad73df04532c032c73b5c596d474c766a5f6cc69ebf5e1360431fc04",
        "legendre_terms.csv": "1ed9fc84e6270adfc957071879ce4bb4a604481b146c3099ec272810464027da"}),
    (["randmodel", "--k", 7, "--budget", 1000000], {
        "randmodel.csv": "a8cdce45ecbec61bf1aa39cc0c8c00bed8dce188c93e8871f3da4b85c01ee39e",
        "randmodel_hist.csv": "1e2003a3ae4612fc3708760ccc8a89addd3b870322f7e4607afe19dde725f46c"}),
    (["randmodel", "--k", 8, "--budget", 1000000000], {
        "randmodel.csv": "c84697f7b61b0e0d695f319f950c63e9a5b48874826a6cc89e1fef0e1de60c6d",
        "randmodel_hist.csv": "7f40150b77d21403ba20e1d23544a4cde1242fbdd771a17dc79e4c71828e2a84"}),
], ids=["legendre-kmax200", "legendre-kmax600", "randmodel-k7-exhaustive", "randmodel-k8-exhaustive"])
def test_enumeration_outputs_bytes_pinned(tmp_path, argv, digests):
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 0
    assert {name: sha(out / name) for name in digests} == digests


def test_randmodel_period_beyond_memory_budget_exits_3(tmp_path, capsys):
    assert run(["randmodel", "--k", 10, "--budget", 10 ** 10, "--out", tmp_path / "o"]) == 3
    assert "Traceback" not in capsys.readouterr().err
    # p_9# / 2 flags fit the budget: the histogram's moments meet the oracle.
    out = tmp_path / "o9"
    assert run(["randmodel", "--k", 9, "--budget", 10 ** 9, "--out", out]) == 0
    hist = [tuple(map(int, line.split(","))) for line in read_lines(out / "randmodel_hist.csv")[1:]]
    assert sum(c for _, c in hist) == 223092870
    primes = cli._table_for(10).first(9)
    assert (sum(v * c for v, c in hist), sum(v * v * c for v, c in hist)) == \
        shift_moments(primes, 29 ** 2 - 23 ** 2)


def test_corr_command(tmp_path):
    out = tmp_path / "o"
    assert run(["corr", "--kmax", 80, "--max-lag", 5, "--out", out]) == 0
    lines = read_lines(out / "corr.csv")
    assert lines[0] == "lag_or_block,value"
    assert lines[1] == "0,1"


def test_conjecture_command_and_count_offset(tmp_path):
    plain = tmp_path / "plain"
    offset = tmp_path / "offset"
    assert run(["conjecture", "--kmax", 20, "--out", plain]) == 0
    assert run(["conjecture", "--kmax", 20, "--count-offset", "--out", offset]) == 0
    a = read_lines(plain / "conjecture.csv")[1].split(",")
    b = read_lines(offset / "conjecture.csv")[1].split(",")
    assert float(b[2]) == pytest.approx(float(a[2]) + 2.0, rel=1e-12)
    manifest = json.loads((plain / "conjecture.manifest.json").read_text())
    assert manifest["violations"] == 0


def test_bias_command(tmp_path):
    out = tmp_path / "o"
    assert run(["bias", "--kmax", 30, "--out", out]) == 0
    lines = read_lines(out / "bias.csv")
    assert lines[0] == "k,x,a,b,c,a_norm,b_norm,c_norm"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "9"
    assert float(first[2]) < 0


def test_failed_rename_keeps_previous_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    assert run(["intervals", "--kmax", 30, "--out", out]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    capsys.readouterr()
    assert run(["intervals", "--kmax", 40, "--out", out]) == 4
    err = capsys.readouterr().err
    assert "i/o error: rename failed" in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # no temp file left


@pytest.mark.parametrize("argv", [
    ["intervals", "--kmax", 40],
    ["maier", "--k", "40,50", "--lambda", 2],
    ["legendre", "--kmax", 30],
    ["randmodel", "--k", 5],
    ["bias", "--kmax", 40],
    ["corr", "--kmax", 40, "--max-lag", 5],
    ["conjecture", "--kmax", 40],
], ids=lambda argv: argv[0])
def test_manifest_command_line_reproduces_outputs(tmp_path, monkeypatch, argv):
    # SIEVELAB_* variables named like flags, and an --out with a space: the
    # recorded command line alone must give the same bytes.
    for name, value in (("SEED", "5"), ("BUDGET", "500"), ("THREADS", "2"),
                        ("SEGMENT_SIZE", "65536")):
        monkeypatch.setenv(f"SIEVELAB_{name}", value)
    out = tmp_path / "with space" / "o"
    assert run([*argv, "--out", out]) == 0
    manifest_path = out / f"{argv[0]}.manifest.json"
    first = json.loads(manifest_path.read_text())
    for name in ("SEED", "BUDGET", "THREADS", "SEGMENT_SIZE"):
        monkeypatch.delenv(f"SIEVELAB_{name}")
    for name in first["outputs"]:
        (out / name).unlink()
    command_line = shlex.split(first["command_line"])
    assert command_line[0] == "sievelab"
    assert main(command_line[1:]) == 0
    again = json.loads(manifest_path.read_text())
    assert again["command_line"] == first["command_line"]
    assert again["outputs"] == first["outputs"]
    assert {name: sha(out / name) for name in first["outputs"]} == first["outputs"]


def test_corr_negative_block_is_domain_error(tmp_path, capsys):
    out, ck = tmp_path / "o", tmp_path / "scan.ckpt"
    assert run(["corr", "--kmax", 80, "--max-lag", 5, "--block", -1, "--out", out,
                "--checkpoint", ck]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "intervals k=" not in err
    assert not (out / "corr.csv").exists() and not ck.exists()


@pytest.mark.parametrize("flags, message", [
    (["--max-lag", -1], "max_lag must be >= 0"),
    (["--max-lag", 80], "deviation sequence shorter than max_lag"),
    (["--max-lag", 5, "--block", 5], "block must exceed max_lag"),
    (["--max-lag", 5, "--block", 81], "deviation sequence shorter than one block"),
    (["--max-lag", 0, "--block", 10], "block mode needs max_lag >= 1"),
], ids=["max-lag<0", "max-lag>=kmax", "block<=max-lag", "block>kmax", "block-with-max-lag-0"])
def test_corr_bad_flags_refused_before_scan(tmp_path, capsys, flags, message):
    out, ck = tmp_path / "o", tmp_path / "scan.ckpt"
    assert run(["corr", "--kmax", 80, *flags, "--out", out, "--checkpoint", ck]) == 2
    err = capsys.readouterr().err
    assert f"domain error: {message}" in err and "intervals k=" not in err
    assert not (out / "corr.csv").exists() and not ck.exists()


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_must_be_positive(tmp_path, threads):
    out = tmp_path / "o"
    assert run(["intervals", "--kmax", 20, "--threads", threads, "--out", out]) == 1
    assert not (out / "intervals.csv").exists()


@pytest.mark.parametrize("size", [1, 0, -7])
def test_segment_size_below_two_is_usage_error(tmp_path, size):
    # Refused when parsed, also when the checkpoint already covers --kmax.
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 20, "--out", tmp_path / "part", "--checkpoint", ck]) == 0
    out = tmp_path / "o"
    for scan in ([], ["--checkpoint", ck]):
        assert run(["intervals", "--kmax", 20, "--segment-size", size, "--out", out, *scan]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["randmodel", "--k", 20, "--budget", 1], "--budget: must be an integer >= 2"),
    (["maier", "--k", 100, "--step", -2], "--step: must be an integer >= 0"),
    *((["maier", "--k", 100, f"--lambda={lam}"], "--lambda: must be finite")
      for lam in ("nan", "inf", "-inf")),
], ids=["budget-1", "step-2", "lambda-nan", "lambda-inf", "lambda--inf"])
def test_bad_flag_value_is_usage_error(tmp_path, capsys, argv, message):
    # Refused when parsed, before main makes --out; the library raises its
    # own DomainError for each (test_randmodel, test_stats_lab).
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_randmodel_digit_table_beyond_memory_budget_exits_3(tmp_path, capsys, pool_sizes):
    # The parent checks the table for the largest start, so no worker starts.
    for argv in (["--budget", 2], ["--budget", 200, "--threads", 2]):
        assert run(["randmodel", "--k", 30000, *argv, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert "resource limit" in err and "Traceback" not in err
    assert pool_sizes == [] and no_child_left()


def test_interval_lookup_beyond_memory_budget_exits_3(tmp_path, capsys, monkeypatch, pool_sizes):
    # The scan's prime-count table for k <= 100 (up to p_101^2 - 1 = 299208)
    # has 152 rows of 5 bytes; one byte less of budget refuses it before
    # any chunk is sieved or any pool opens.
    end = cli._table_for(101).nth(101) ** 2
    need = 5 * ((end - 1) // sieve_core._icbrt(end - 1) // 30 + 1)
    ck = tmp_path / "scan.ckpt"
    argv = ["intervals", "--kmax", 100, "--threads", 2, "--checkpoint", ck]
    monkeypatch.setattr(sieve_core, "DEFAULT_MEMORY_BUDGET", need - 1)
    capsys.readouterr()
    assert run([*argv, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert "resource limit" in err and "Traceback" not in err
    assert pool_sizes == [] and not ck.exists()
    monkeypatch.setattr(sieve_core, "DEFAULT_MEMORY_BUDGET", need)
    assert run([*argv, "--out", tmp_path / "o"]) == 0


def test_output_lines_end_with_lf(tmp_path):
    out = tmp_path / "o"
    assert run(["intervals", "--kmax", 3, "--out", out]) == 0
    raw = (out / "intervals.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


# sha256 of every interval-derived output at --kmax 300, recorded from the
# list-of-records implementation before the interval table became columnar.
PINNED_KMAX_300 = {
    "checkpoint": "4a1e75831cc7f622b95cc6515e5757b1483894e777d1a0e6b32e994e633d165a",
    "intervals.csv": "2495d2f34528233c25c265f812695d7117cf3e122eb2654cac9ee3de7565f54e",
    "deviations.csv": "2775bab6b99b3d8912b1a15a51fa36e8e47cc83346501ccc9031432a4684bc5c",
    "bias.csv": "a012f5fd51d4af13539e7bad603d9ff99282541eb05f7dcc70559673ead69eda",
    "bias.csv --count-offset":
        "efb89208354a17b91e78111a8c297f53cb6dc721868363c859f49f0e8c602e0f",
    "conjecture.csv": "512f0ac512d2e957819e4ee57b700a7f1badd3d5a7c733a17c0602999f9d0615",
    "conjecture.csv --count-offset":
        "545540e88ac5b8075aef6b9a830db8bfbd5cf8f803025097aa59f74b31eee9f9",
    "corr.csv": "eabee103cac05c98d1a25f5ee0df10fa538a26c3338f10f2b12556383139ff9b",
}


@pytest.mark.parametrize("resume_from", [None, 150], ids=["single-shot", "resumed"])
def test_interval_outputs_bytes_pinned(tmp_path, resume_from):
    ck = tmp_path / "scan.ckpt"
    if resume_from:
        assert run(["intervals", "--kmax", resume_from, "--out", tmp_path / "part",
                    "--checkpoint", ck]) == 0
    out = tmp_path / "intervals"
    assert run(["intervals", "--kmax", 300, "--out", out, "--checkpoint", ck]) == 0
    digests = {"checkpoint": sha(ck),
               "intervals.csv": sha(out / "intervals.csv"),
               "deviations.csv": sha(out / "deviations.csv")}
    # The resumed run reads the other commands' intervals from the checkpoint.
    scan = ["--checkpoint", ck] if resume_from else []
    for command in ("bias", "conjecture"):
        for flags in ([], ["--count-offset"]):
            out = tmp_path / f"{command}{len(flags)}"
            assert run([command, "--kmax", 300, "--out", out] + scan + flags) == 0
            digests[" ".join([f"{command}.csv"] + flags)] = sha(out / f"{command}.csv")
    assert run(["corr", "--kmax", 300, "--out", tmp_path / "corr"] + scan) == 0
    digests["corr.csv"] = sha(tmp_path / "corr" / "corr.csv")
    assert digests == PINNED_KMAX_300


def _interval_digests(tmp_path, ck, scan_flags=()):
    """PINNED_KMAX_300's keys, every command reading its intervals from ``ck``."""
    out = tmp_path / "rerun"
    assert run(["intervals", "--kmax", 300, "--out", out, "--checkpoint", ck, *scan_flags]) == 0
    digests = {"checkpoint": sha(ck),
               "intervals.csv": sha(out / "intervals.csv"),
               "deviations.csv": sha(out / "deviations.csv")}
    for command in ("bias", "conjecture"):
        for flags in ([], ["--count-offset"]):
            out = tmp_path / f"{command}{len(flags)}"
            assert run([command, "--kmax", 300, "--out", out, "--checkpoint", ck] + flags) == 0
            digests[" ".join([f"{command}.csv"] + flags)] = sha(out / f"{command}.csv")
    assert run(["corr", "--kmax", 300, "--out", tmp_path / "corr", "--checkpoint", ck]) == 0
    digests["corr.csv"] = sha(tmp_path / "corr" / "corr.csv")
    return digests


CHUNKED_SCAN = ["--threads", 2, "--segment-size", 65536]


@pytest.mark.parametrize("kmax", [300, 700])
def test_one_scan_one_pool(tmp_path, monkeypatch, pool_sizes, kmax):
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 150, "--out", tmp_path / "part",
                "--checkpoint", ck, *CHUNKED_SCAN]) == 0
    pool_sizes.clear()
    scans = []  # the chunk starts seen by each scan call
    real_scan = cli.compute_interval_records

    def recording_scan(*args, progress=None, **kwargs):
        chunks = []
        scans.append(chunks)

        def hook(k_lo, block):
            chunks.append(k_lo)
            if progress:
                progress(k_lo, block)
        return real_scan(*args, progress=hook, **kwargs)

    monkeypatch.setattr(cli, "compute_interval_records", recording_scan)
    out = tmp_path / "o"
    assert run(["intervals", "--kmax", kmax, "--out", out, "--checkpoint", ck, *CHUNKED_SCAN]) == 0
    assert len(scans) == 1 and scans[0][0] == 151
    assert len(pool_sizes) <= 1 and all(size <= len(scans[0]) for size in pool_sizes)
    assert [json.loads(line)["k"] for line in read_lines(ck)] == list(range(1, kmax + 1))
    if kmax == 300:
        assert sha(ck) == PINNED_KMAX_300["checkpoint"]
        assert sha(out / "intervals.csv") == PINNED_KMAX_300["intervals.csv"]


def test_interrupted_scan_keeps_whole_chunks(tmp_path, monkeypatch, capsys):
    ck = tmp_path / "scan.ckpt"
    appended = []
    real_append = cli._checkpoint_append

    def failing_append(path, k_from, block):
        if len(appended) == 2:
            raise OSError("disk full")
        appended.append(k_from)
        real_append(path, k_from, block)

    monkeypatch.setattr(cli, "_checkpoint_append", failing_append)
    capsys.readouterr()
    assert run(["intervals", "--kmax", 300, "--out", tmp_path / "o", "--checkpoint", ck,
                *CHUNKED_SCAN]) == 4
    assert "Traceback" not in capsys.readouterr().err
    chunks = _chunk_bounds(1, 300, cli._table_for(301), 65536)
    assert appended == [chunks[0][0], chunks[1][0]]
    assert [json.loads(line)["k"] for line in read_lines(ck)] == list(range(1, chunks[1][1] + 1))
    assert no_child_left()
    monkeypatch.undo()
    assert _interval_digests(tmp_path, ck, CHUNKED_SCAN) == PINNED_KMAX_300


# Runs main on a chunked two-worker scan whose workers kill themselves on
# every chunk after the first, then prints its exit code and whether a
# child process is left.
_KILLED_SCAN = """
import os, signal, sys
from sievelab import cli, intervals

parent, real_counts = os.getpid(), intervals._chunk_counts

def killing(task):
    if os.getpid() != parent and task[0] > 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_counts(task)

intervals._chunk_counts = killing
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print(code, "a child is left")
except ChildProcessError:
    print(code, "no child left")
"""


def test_killed_worker_exits_3(tmp_path):
    # A worker killed mid-scan, as by the OOM killer, is a resource limit:
    # exit 3 at once, not a wait forever. The checkpoint keeps the chunk
    # before it, and a resume writes the pinned bytes. The scan runs in a
    # child process with a timeout, so a hang fails this test, not the suite.
    ck = tmp_path / "scan.ckpt"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["intervals", "--kmax", 300, "--out", tmp_path / "o", "--checkpoint", ck, *CHUNKED_SCAN]
    out = subprocess.run([sys.executable, "-c", _KILLED_SCAN, *map(str, argv)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout == "3 no child left\n"
    assert "sievelab: resource limit: worker process " in out.stderr
    assert "Traceback" not in out.stderr
    first = _chunk_bounds(1, 300, cli._table_for(301), 65536)[0]
    assert [json.loads(line)["k"] for line in read_lines(ck)] == list(range(1, first[1] + 1))
    assert _interval_digests(tmp_path, ck, CHUNKED_SCAN) == PINNED_KMAX_300


@pytest.mark.parametrize("error, code, label", [
    (DomainError("chunk out of range"), 2, "domain error"),
    (ResourceError("chunk over budget"), 3, "resource limit"),
], ids=["domain", "resource"])
def test_worker_error_keeps_its_exit_code(tmp_path, capsys, monkeypatch, error, code, label):
    # The error a chunk raises in a forked worker reaches main with its type.
    parent, real_counts = os.getpid(), intervals._chunk_counts

    def failing(task):
        if os.getpid() != parent and task[0] > 1:
            raise error
        return real_counts(task)

    monkeypatch.setattr(intervals, "_chunk_counts", failing)
    assert run(["intervals", "--kmax", 300, "--out", tmp_path / "o", *CHUNKED_SCAN]) == code
    err = capsys.readouterr().err
    assert f"sievelab: {label}: {error}" in err and "Traceback" not in err
    assert no_child_left()


_RUN_KEYS = {"stages", "sieve_entries", "workers", "blas_threads", "resumed_from_k",
             "peak_rss_mb", "minor_faults", "versions"}


@pytest.mark.parametrize("argv", [
    ["intervals", "--kmax", 20], ["bias", "--kmax", 20], ["corr", "--kmax", 20, "--max-lag", 5],
    ["conjecture", "--kmax", 20], ["legendre", "--kmax", 20], ["randmodel", "--k", 5],
    ["maier", "--k", 30],
], ids=lambda argv: argv[0])
def test_every_manifest_has_a_run_block(tmp_path, argv):
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == 0
    block = json.loads((out / f"{argv[0]}.manifest.json").read_text())["run"]
    assert block.keys() == _RUN_KEYS
    assert block["versions"]["sievelab"] == "0.1.0"
    assert {"python", "numpy"} <= block["versions"].keys()
    assert block["peak_rss_mb"]["self"] > 0 and block["peak_rss_mb"]["children"] >= 0
    assert block["minor_faults"]["self"] > 0 and block["minor_faults"]["children"] >= 0
    assert block["stages"]["command"]["wall_s"] > 0
    assert block["resumed_from_k"] is None
    assert block["blas_threads"] in (1, None)  # main pins OpenBLAS where it finds it
    manifest = json.loads((out / f"{argv[0]}.manifest.json").read_text())
    assert manifest["seed"] == (0 if argv[0] == "randmodel" else None)
    scans = argv[0] in ("intervals", "bias", "corr", "conjecture")
    assert ("scan" in block["stages"]) == scans
    # The scan sieves [p_1^2, p_21^2) = [4, 73^2) with one worker.
    assert (block["sieve_entries"], block["workers"]) == ((73 ** 2 - 4, 1) if scans else (0, 0))


def test_sampled_randmodel_reports_its_pool(tmp_path, pool_sizes):
    # 100 draws are two batches: at most two workers, whatever --threads says.
    digests = set()
    for threads, workers in ((1, 1), (2, 2), (3, 2)):
        out = tmp_path / str(threads)
        assert run(["randmodel", "--k", 30, "--budget", 100, "--threads", threads,
                    "--out", out]) == 0
        manifest = json.loads((out / "randmodel.manifest.json").read_text())
        assert manifest["run"]["workers"] == workers
        digests.add(tuple(manifest["outputs"].values()))
    assert pool_sizes == [2, 2] and len(digests) == 1
    assert no_child_left()


def test_legendre_reports_its_pool(tmp_path, pool_sizes):
    # k = 172..200 are the context rows: four tasks of at most 8 k. At
    # --kmax 40 every row is enumerated and nothing forks.
    digests = set()
    for kmax, threads, workers in ((200, 1, 1), (200, 2, 2), (40, 2, 0)):
        out = tmp_path / f"{kmax}_{threads}"
        assert run(["legendre", "--kmax", kmax, "--threads", threads, "--out", out]) == 0
        manifest = json.loads((out / "legendre.manifest.json").read_text())
        assert manifest["run"]["workers"] == workers
        if kmax == 200:
            digests.add(tuple(manifest["outputs"].values()))
    assert pool_sizes == [2] and len(digests) == 1
    assert no_child_left()


def test_threads_default_to_the_usable_cpus():
    parser = cli.build_parser()
    for argv in (["intervals", "--kmax", "5"], ["maier", "--k", "30"], ["legendre", "--kmax", "5"],
                 ["randmodel", "--k", "5"], ["bias", "--kmax", "5"], ["corr", "--kmax", "5"],
                 ["conjecture", "--kmax", "5"]):
        assert parser.parse_args(argv).threads == len(os.sched_getaffinity(0))


def test_resumed_run_reports_its_resume_k(tmp_path):
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 30, "--out", tmp_path / "part", "--checkpoint", ck]) == 0
    resumed, direct = tmp_path / "resumed", tmp_path / "direct"
    assert run(["intervals", "--kmax", 60, "--out", resumed, "--checkpoint", ck,
                "--threads", 2, "--segment-size", 8192]) == 0
    assert run(["intervals", "--kmax", 60, "--out", direct]) == 0
    manifests = [json.loads((out / "intervals.manifest.json").read_text())
                 for out in (resumed, direct)]
    # p_31 = 127 and p_61 = 283: the resumed scan sieves [127^2, 283^2).
    assert manifests[0]["run"]["resumed_from_k"] == 31
    assert manifests[0]["run"]["sieve_entries"] == 283 ** 2 - 127 ** 2
    assert manifests[0]["run"]["workers"] == 2
    assert manifests[1]["run"]["resumed_from_k"] is None
    assert manifests[0]["outputs"] == manifests[1]["outputs"] == {
        name: sha(resumed / name) for name in ("intervals.csv", "deviations.csv")}
    for name in ("intervals.csv", "deviations.csv"):
        assert sha(resumed / name) == sha(direct / name)
    # A run the checkpoint already covers sieves nothing.
    again = tmp_path / "again"
    assert run(["intervals", "--kmax", 60, "--out", again, "--checkpoint", ck]) == 0
    block = json.loads((again / "intervals.manifest.json").read_text())["run"]
    assert (block["resumed_from_k"], block["sieve_entries"], block["workers"]) == (61, 0, 0)


# Each command's manifest without its "run" block and "command_line",
# recorded before the commands returned columns for main to write. The
# corr --block 100 digest is the only pin of block mode's corr.csv.
PINNED_MANIFESTS = {
    "intervals --kmax 20": {"k_max": 20, "outputs": {
        "intervals.csv": "58207ecb913cd9101373c364096359df644ad243275de9b154121e2b5da4e050",
        "deviations.csv": "1c4efab7df65f6ced798cce94dcfc3cc864dc6d47001fa9e340ac073cbf2b8c8"}},
    "maier --k 30,40 --lambda 2": {
        "k_max": 40, "lambda": 2.0, "delta_lambda": 0.47987832593897917, "outputs": {
            "maier_scan.csv": "87fca874842d00feae268cd85c641e4362af6056e63314d0675cad80e19453cf",
            "maier_summary.csv":
                "523a6f253a5b251d85cc21818099994cc70b7831012c4c319efce115bd384e97"}},
    "legendre --kmax 20": {"k_max": 20, "outputs": {
        "legendre_scan.csv": "d4a5dfd1f44bf5ebf203b3b2cfe82bb8c3669a83be1e44d08f1c97a6f9b1c11d",
        "legendre_terms.csv": "7fc4a3c333b16277627759cbb45f12e45acf7781370e60ffe30c58cc690e832b"}},
    "randmodel --k 5": {"k_max": 5, "seed": 0, "mode": "exhaustive", "budget": 100000, "outputs": {
        "randmodel.csv": "cdbdcbfd4aaba5e7ad9821c82ad9fe7e233eff23c378f609c085b1c229114847",
        "randmodel_hist.csv": "af7f1819caefc4467d2f863ae4488058c0a747e0a119cfa313b9dd61548865cf"}},
    "randmodel --k 12 --budget 200 --seed 9": {
        "k_max": 12, "seed": 9, "mode": "sampled", "budget": 200, "outputs": {
            "randmodel.csv": "31d99069e42d043cb766f7f8967cf0f25f600126759465688daef4e7170d1c38",
            "randmodel_hist.csv":
                "4218785da2532fb5ffcd75b46eb7326ca916bccc3e40fa6f7d91736d9970bbef"}},
    "bias --kmax 40": {
        "k_max": 40, "count_offset": False, "fit_mean": -0.9109505636557633,
        "fit_stdev": 0.1280241615437914,
        "outputs": {"bias.csv": "40798441402433e3e866b3139d0ec8919df9a3680f07283714da8d088e9906ce"}},
    "bias --kmax 40 --count-offset": {
        "k_max": 40, "count_offset": True, "fit_mean": -0.6452159893924353,
        "fit_stdev": 0.4973758982047386,
        "outputs": {"bias.csv": "df4d23bb17f0dc47cfd22a4abd6b5709ddb5fc65096a7e6f7ec78158ab1b1b57"}},
    "corr --kmax 40 --max-lag 5": {
        "k_max": 40, "max_lag": 5, "block": 0,
        "outputs": {"corr.csv": "ae9a35ba23864e9cd643a1e5ea20ccf0815e9d704ab1152505be85aa88266520"}},
    "corr --kmax 300 --max-lag 5 --block 100": {
        "k_max": 300, "max_lag": 5, "block": 100,
        "outputs": {"corr.csv": "f0d16d9c9140e7e67a65d9a2ee8defcfabe9a3a86ae675d3d6c7cb2d3ad1ef0a"}},
    "conjecture --kmax 40": {"k_max": 40, "count_offset": False, "violations": 0, "outputs": {
        "conjecture.csv": "cd2f2b2fd267e149389e61c47704d04418cf60d8494358fbe8445711de6fee9f"}},
    "conjecture --kmax 40 --count-offset": {
        "k_max": 40, "count_offset": True, "violations": 0, "outputs": {
            "conjecture.csv": "a0f5a552fb76823342945c8cb2fed0ec36ffd41853940a9bf0a0a91eb6133525"}},
}


@pytest.mark.parametrize("command_line", PINNED_MANIFESTS)
def test_manifest_pinned(tmp_path, command_line):
    argv = command_line.split()
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == 0
    manifest = json.loads((out / f"{argv[0]}.manifest.json").read_text())
    del manifest["run"], manifest["command_line"]
    assert manifest == {"command": argv[0], "version": "0.1.0", "seed": None,
                        **PINNED_MANIFESTS[command_line]}


@pytest.mark.parametrize("flags", [[], ["--count-offset"]], ids=["plain", "count-offset"])
def test_bias_fit_is_of_the_written_column(tmp_path, flags):
    out = tmp_path / "o"
    assert run(["bias", "--kmax", 40, "--out", out, *flags]) == 0
    manifest = json.loads((out / "bias.manifest.json").read_text())
    lines = read_lines(out / "bias.csv")
    col = lines[0].split(",").index("a_norm")
    a_norm = [float(line.split(",")[col]) for line in lines[1:]]
    assert manifest["fit_mean"] == pytest.approx(statistics.fmean(a_norm), rel=1e-12)
    assert manifest["fit_stdev"] == pytest.approx(statistics.stdev(a_norm), rel=1e-12)


@pytest.mark.parametrize("flags, violations, digest", [
    ([], 2, "07e68cec24dbb8bacd80a68746e8f3edc8eb1da080f1edec344bf12f8d72574c"),
    (["--count-offset"], 3, "e75be9cd1205251f14795ffd0110900c5e0094c161d5abe1c309d07083d4f07e"),
], ids=["plain", "count-offset"])
def test_conjecture_counts_violations(tmp_path, flags, violations, digest):
    # True counts never leave the band at these sizes, so six primes are
    # added to s_1 in the checkpoint: |pi - li| >= sqrt(li) at the first k.
    ck = tmp_path / "scan.ckpt"
    assert run(["intervals", "--kmax", 40, "--out", tmp_path / "part", "--checkpoint", ck]) == 0
    rows = [json.loads(line) for line in read_lines(ck)]
    rows[0]["pi_k"] += 6
    ck.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "o"
    assert run(["conjecture", "--kmax", 40, "--out", out, "--checkpoint", ck, *flags]) == 0
    manifest = json.loads((out / "conjecture.manifest.json").read_text())
    assert manifest["violations"] == violations
    assert sha(out / "conjecture.csv") == manifest["outputs"]["conjecture.csv"] == digest
