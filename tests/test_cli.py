import contextlib
import csv
import io
import json
import os
import random
import re
import resource
import signal
import socket
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camsieve import cli, dataset, features, flows, packets, protocols, synth, tree, workers
from camsieve.cli import main
from camsieve.dataset import read_csv, write_csv
from camsieve.errors import OutOfOrderTimestamp
from camsieve.packets import PAYLOAD_HEAD
from camsieve.tree import load_model

from conftest import (
    MALFORMED_PAYLOADS,
    ipv4_frame,
    ipv6_capture,
    run_for_peak_rss,
    small_model_payload,
    swap_records,
    tcp_segment,
    udp_segment,
    write_model_payload,
    write_pcap_bytes,
)
from oracles import _reference_ipv6_text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth->extract pass reused by the quick CLI checks."""
    base = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--kind", "conf", "-n", "12", "--seed", "5",
                 "-o", str(base / "conf.pcap")]) == 0
    assert main(["synth", "--kind", "camera", "-n", "12", "--seed", "5",
                 "-o", str(base / "camera.pcap")]) == 0
    assert main(["extract", str(base / "conf.pcap"), "--label", "Conf",
                 "-o", str(base / "conf.csv")]) == 0
    assert main(["extract", str(base / "camera.pcap"), "--label", "IoTCam",
                 "-o", str(base / "camera.csv")]) == 0
    # merged two-class training CSV
    conf = (base / "conf.csv").read_text().splitlines()
    cam = (base / "camera.csv").read_text().splitlines()
    (base / "both.csv").write_text("\n".join(conf + cam[2:]) + "\n")
    return base


class TestExtract:
    def test_csv_has_84_columns_and_labels(self, workdir):
        values, labels = read_csv(workdir / "conf.csv")
        assert values.shape == (12, len(features.FEATURE_NAMES))
        assert labels == ["Conf"] * 12
        rows = list(csv.reader(io.StringIO((workdir / "conf.csv").read_text(), newline="")))
        assert {len(row) for row in rows[1:]} == {len(features.ALL_COLUMNS)}

    def test_extract_is_deterministic(self, workdir, tmp_path):
        out = tmp_path / "again.csv"
        assert main(["extract", str(workdir / "conf.pcap"), "--label", "Conf",
                     "-o", str(out)]) == 0
        assert out.read_bytes() == (workdir / "conf.csv").read_bytes()

    def test_missing_pcap_is_data_error(self, tmp_path):
        assert main(["extract", str(tmp_path / "nope.pcap"), "-o", str(tmp_path / "x.csv")]) == 1

    def test_bad_pcap_leaves_no_partial_output(self, tmp_path):
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\xa1\xb2\xc3\xd4" + b"\x00" * 40)  # big-endian magic, then junk
        out = tmp_path / "out.csv"
        code = main(["extract", str(bad), "-o", str(out)])
        assert code == 1
        assert not out.exists()
        assert not list(tmp_path.glob("out.csv.*"))


def cut_pcap(src, dst, snaplen):
    """Copy a little-endian microsecond pcap with every record cut to snaplen
    bytes, as a capture taken with `tcpdump -s snaplen` would hold it. Returns
    the number of records that lost bytes."""
    data = src.read_bytes()
    out = bytearray(data[:16] + struct.pack("<I", snaplen) + data[20:24])
    pos, cut = 24, 0
    while pos < len(data):
        ts_sec, ts_us, incl_len, orig_len = struct.unpack_from("<IIII", data, pos)
        body = data[pos + 16 : pos + 16 + incl_len]
        out += struct.pack("<IIII", ts_sec, ts_us, min(incl_len, snaplen), orig_len)
        out += body[:snaplen]
        cut += incl_len > snaplen
        pos += 16 + incl_len
    dst.write_bytes(bytes(out))
    return cut


class TestSnaplenCut:
    @pytest.mark.parametrize("kind", ["camera", "conf", "share"])
    def test_cut_capture_gives_same_csv(self, tmp_path, kind):
        full = tmp_path / "full.pcap"
        assert main(["synth", "--kind", kind, "-n", "20", "--seed", "3", "-o", str(full)]) == 0
        assert cut_pcap(full, tmp_path / "cut.pcap", 128) > 0
        for name in ("full", "cut"):
            assert main(["extract", str(tmp_path / f"{name}.pcap"), "--label", kind,
                         "-o", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "cut.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test, instead of hanging it, if the body runs too long."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestMalformedModel:
    @pytest.mark.parametrize(
        "mutate", [pytest.param(m, id=name) for name, m in MALFORMED_PAYLOADS]
    )
    def test_predict_is_data_error(self, workdir, tmp_path, capsys, mutate):
        payload = small_model_payload()
        mutate(payload)
        model = tmp_path / "model.json"
        write_model_payload(model, payload)
        out = tmp_path / "scored.csv"
        # a child index pointing back up the table once made predict loop forever
        with time_limit(20):
            code = main(["predict", str(model), str(workdir / "conf.csv"), "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestOverlongRecord:
    @pytest.mark.parametrize("record", [
        pytest.param(struct.pack("<IIII", 0, 0, 262_145, 262_145) + bytes(262_145), id="complete"),
        pytest.param(struct.pack("<IIII", 0, 0, 0xFFFFFFF0, 0xFFFFFFF0), id="absurd-claim"),
    ])
    def test_extract_is_data_error(self, tmp_path, capsys, record):
        pcap = tmp_path / "long.pcap"
        pcap.write_bytes(write_pcap_bytes([]) + record)
        out = tmp_path / "out.csv"
        assert main(["extract", str(pcap), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "more than 262144" in err
        assert not out.exists()


class TestUnsupportedLinkType:
    """113 is LINKTYPE_LINUX_SLL, what `tcpdump -i any` writes."""

    @pytest.mark.parametrize("command", ["extract", "inspect"])
    def test_frames_of_an_unread_link_type_are_data_error(self, workdir, tmp_path, capsys,
                                                          command):
        pcap, out = tmp_path / "sll.pcap", tmp_path / "out"
        data = bytearray((workdir / "conf.pcap").read_bytes())
        struct.pack_into("<I", data, 20, 113)  # the global header's link type
        pcap.write_bytes(data)
        assert main([command, str(pcap), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pcap}: link type 113 is not supported"), err
        assert list(tmp_path.iterdir()) == [pcap]

    @pytest.mark.parametrize("command", ["extract", "inspect"])
    def test_header_only_capture_is_an_empty_run(self, tmp_path, command):
        pcap, out = tmp_path / "sll.pcap", tmp_path / "out"
        pcap.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 113))
        assert main([command, str(pcap), "-o", str(out)]) == 0
        assert out.exists()


class TestLinkTypeField:
    """The pcap header's link-type field keeps the link type in its low 16
    bits; bit 26 and bits 28-31 announce an FCS length (draft-ietf-opsawg-pcap)."""

    @pytest.mark.parametrize("fcs_bits", [
        pytest.param(0x04000000, id="fcs-flag"),
        pytest.param(0x24000000, id="fcs-flag-and-length-2"),
    ])
    def test_fcs_bits_leave_the_bytes_alone(self, tmp_path, fcs_bits):
        plain, flagged = tmp_path / "plain.pcap", tmp_path / "flagged.pcap"
        assert main(["synth", "--kind", "conf", "-n", "3", "--seed", "1", "-o", str(plain)]) == 0
        data = bytearray(plain.read_bytes())
        link_type = struct.unpack_from("<I", data, 20)[0]
        struct.pack_into("<I", data, 20, link_type | fcs_bits)
        flagged.write_bytes(data)
        for name in ("plain", "flagged"):
            pcap = str(tmp_path / f"{name}.pcap")
            assert main(["extract", pcap, "--label", "Conf",
                         "-o", str(tmp_path / f"{name}.csv")]) == 0
            assert main(["inspect", pcap, "--json", "-o", str(tmp_path / f"{name}.json")]) == 0
        for suffix in ("csv", "json"):
            assert (tmp_path / f"flagged.{suffix}").read_bytes() == \
                (tmp_path / f"plain.{suffix}").read_bytes()


class TestIPv6Capture:
    """A synth capture rewritten from IPv4 to IPv6 (conftest.ipv6_capture)
    holds the same flows: the same rows in the same order, with the identity
    cells in IPv6 text and every packet 20 bytes longer on the wire."""

    PREFIXES = [
        pytest.param(bytes.fromhex("20010db8") + bytes(8), id="2001-db8"),
        # spelled ::ffff:a00:1 on every Python, although 3.13's ipaddress
        # writes ::ffff:10.0.0.1
        pytest.param(bytes(10) + b"\xff\xff", id="ipv4-mapped"),
    ]

    @staticmethod
    def captures(tmp_path, kind, prefix):
        v4, v6 = tmp_path / "v4.pcap", tmp_path / "v6.pcap"
        assert main(["synth", "--kind", kind, "-n", "20", "--seed", "3", "-o", str(v4)]) == 0
        v6.write_bytes(ipv6_capture(v4.read_bytes(), prefix))
        return v4, v6

    @staticmethod
    def ipv6_text(ipv4_text, prefix):
        return _reference_ipv6_text(prefix + socket.inet_aton(ipv4_text))

    def ipv6_flow_id(self, flow_id, prefix):
        src, dst, rest = flow_id.split("-", 2)
        return f"{self.ipv6_text(src, prefix)}-{self.ipv6_text(dst, prefix)}-{rest}"

    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("kind", ["camera", "conf", "share"])
    def test_extract_gives_the_same_rows(self, tmp_path, kind, prefix):
        rows = []
        for pcap in self.captures(tmp_path, kind, prefix):
            out = tmp_path / (pcap.stem + ".csv")
            assert main(["extract", str(pcap), "--label", "Conf", "-o", str(out)]) == 0
            with open(out, newline="") as fh:
                rows.append(list(csv.reader(fh))[2:])
        v4_rows, v6_rows = rows
        size = 6 + features.FEATURE_NAMES.index("Average Packet Size")
        assert len(v6_rows) == len(v4_rows) > 0
        for old, new in zip(v4_rows, v6_rows):
            expected = [self.ipv6_flow_id(old[0], prefix), self.ipv6_text(old[1], prefix),
                        self.ipv6_text(old[2], prefix), *old[3:]]
            expected[size] = repr(float(old[size]) + 20.0)
            assert new == expected

    @pytest.mark.parametrize("prefix", PREFIXES)
    def test_inspect_gives_the_same_report(self, tmp_path, prefix):
        reports = []
        for pcap in self.captures(tmp_path, "conf", prefix):
            out = tmp_path / (pcap.stem + ".json")
            assert main(["inspect", str(pcap), "--app", "teams", "--json", "-o", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        v4_report, v6_report = reports
        assert v4_report["flows"]
        for entry in v4_report["flows"]:
            entry["flow_id"] = self.ipv6_flow_id(entry["flow_id"], prefix)
        assert v6_report == v4_report


def output_argv(command, workdir, model_path, out):
    """The arguments of a command that writes its output to `out`."""
    inputs = {
        "extract": [workdir / "conf.pcap"],
        "inspect": [workdir / "conf.pcap"],
        "train": [workdir / "both.csv"],
        "cv": [workdir / "both.csv"],
        "predict": [model_path, workdir / "both.csv"],
        "report": [workdir / "both.csv", "-k", "4"],
    }[command]
    return [command, *map(str, inputs), "-o", str(out)]


class TestWriteErrors:
    """A failed write names the output path the user gave, not a temp file."""

    @pytest.mark.parametrize("command", ["extract", "inspect", "cv", "predict"])
    def test_missing_directory(self, workdir, model_path, tmp_path, capsys, command):
        out = tmp_path / "missing" / "out"
        assert main(output_argv(command, workdir, model_path, out)) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["extract", "inspect", "cv", "predict"])
    def test_directory_in_the_way_leaves_no_temp_file(self, workdir, model_path, tmp_path,
                                                      capsys, command):
        out = tmp_path / "out"
        out.mkdir()  # the final rename fails
        assert main(output_argv(command, workdir, model_path, out)) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
        assert list(tmp_path.iterdir()) == [out]


@contextlib.contextmanager
def drained(fifo):
    """A thread reads the FIFO at `fifo` to its end while the block runs;
    yields a function that gives the bytes it read."""
    read = {}

    def drain():
        with open(fifo, "rb") as fh:
            read["bytes"] = fh.read()

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    try:
        yield lambda: read["bytes"]
    finally:
        thread.join(timeout=10)
        if thread.is_alive():
            # nothing opened the FIFO: a writer that closes at once ends the read
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            thread.join(timeout=10)
    assert not thread.is_alive()


class TestOutputInPlace:
    """An output path that is a FIFO is written to, not replaced by a file; so
    a reader of the FIFO gets the bytes that a regular file gets."""

    @pytest.mark.parametrize("command", ["extract", "inspect", "train", "cv", "predict", "report"])
    def test_fifo_gets_the_files_bytes(self, workdir, model_path, tmp_path, command):
        regular, fifo = tmp_path / "regular", tmp_path / "fifo"
        json_report = ["--json"] if command == "inspect" else []
        assert main(output_argv(command, workdir, model_path, regular) + json_report) == 0
        os.mkfifo(fifo)
        with drained(fifo) as read:
            assert main(output_argv(command, workdir, model_path, fifo) + json_report) == 0
        assert read() == regular.read_bytes()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(tmp_path.iterdir()) == [fifo, regular]  # no temp file left

    def test_synth_fifos_get_the_files_bytes(self, tmp_path):
        argv = ["synth", "--kind", "conf", "-n", "3", "--seed", "1"]
        pcap, manifest = tmp_path / "conf.pcap", tmp_path / "conf.jsonl"
        assert main([*argv, "-o", str(pcap), "--manifest", str(manifest)]) == 0
        pcap_fifo, manifest_fifo = tmp_path / "pcap.fifo", tmp_path / "manifest.fifo"
        os.mkfifo(pcap_fifo)
        os.mkfifo(manifest_fifo)
        with drained(pcap_fifo) as read_pcap, drained(manifest_fifo) as read_manifest:
            assert main([*argv, "-o", str(pcap_fifo), "--manifest", str(manifest_fifo)]) == 0
        assert read_pcap() == pcap.read_bytes()
        assert read_manifest() == manifest.read_bytes()
        assert stat.S_ISFIFO(os.stat(pcap_fifo).st_mode)
        assert stat.S_ISFIFO(os.stat(manifest_fifo).st_mode)

    def test_fifo_without_reader_left_is_an_error(self, workdir, tmp_path, capsys):
        # the reader takes one byte and goes: the rest meets a closed pipe
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        pcap = tmp_path / "rtp.pcap"
        write_rtp_capture(pcap, 2000, 400, 100)

        def read_one():
            with open(fifo, "rb", buffering=0) as fh:
                fh.read(1)

        thread = threading.Thread(target=read_one, daemon=True)
        thread.start()
        assert main(["inspect", str(pcap), "--json", "-o", str(fifo)]) == 1
        thread.join(timeout=10)
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def cli_child(argv, env=None):
    """camsieve.cli run with argv in a child process whose stdout and stderr
    are pipes, with this source tree on its path and env, when given, as its
    other environment."""
    src_dir = Path(cli.__file__).resolve().parents[1]
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(src_dir)}
    return subprocess.Popen([sys.executable, "-m", "camsieve.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


# runs each CLI command of the JSON list in its first argument on one CPU of
# its affinity set, where no thread or process may start
ON_ONE_CPU = """
import json, os, sys, threading
from camsieve.cli import main
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

def refuse(*args):
    raise AssertionError("a thread or process started on one CPU")

threading.Thread.start = refuse
os.fork = refuse
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


class TestModelCommandsOnCores:
    """cv and report grow their independent trees, and every command that
    reads a CSV parses its chunks, in this process and up to one forked
    child, as the affinity set allows; the bytes do not depend on how many
    workers there are."""

    @staticmethod
    def commands(workdir, tmp_path, suffix):
        """cv and report on both.csv, then train and predict on a CSV of three
        chunks of its records, each writing to a file named for suffix."""
        big = tmp_path / "big.csv"
        if not big.exists():
            schema, header, *rows = (workdir / "both.csv").read_text().splitlines()
            big.write_text("\r\n".join([schema, header] + [
                rows[i % len(rows)] for i in range(2 * dataset.CHUNK_ROWS + 100)]) + "\r\n")
        src, model = str(workdir / "both.csv"), str(tmp_path / f"model-{suffix}.json")
        return [[command, src, "-k", "3", "-o", str(tmp_path / f"{command}-{suffix}.txt")]
                for command in ("cv", "report")] + [
            ["train", str(big), "-o", model],
            ["predict", model, str(big), "-o", str(tmp_path / f"scored-{suffix}.csv")],
        ]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_one_cpu_starts_no_thread_and_writes_the_same_bytes(self, workdir, tmp_path,
                                                                 monkeypatch):
        child = subprocess.run(
            [sys.executable, "-c", ON_ONE_CPU,
             json.dumps(self.commands(workdir, tmp_path, "one"))],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr

        def refuse(thread):
            raise AssertionError("a thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        outputs = ["cv-{}.txt", "report-{}.txt", "model-{}.json", "scored-{}.csv"]
        for n, suffix in ((2, "two"), (3, "three")):
            monkeypatch.setattr(workers, "_cores", lambda: n)
            monkeypatch.setattr(workers, "_MAX_WORKERS", n)
            for argv in self.commands(workdir, tmp_path, suffix):
                assert main(argv) == 0, argv
            for name in outputs:
                forked = (tmp_path / name.format(suffix)).read_bytes()
                assert forked == (tmp_path / name.format("one")).read_bytes(), name

    def test_predict_through_a_fifo_writes_the_same_bytes_before_an_error(
            self, workdir, model_path, tmp_path, monkeypatch, capsys):
        # chunks of 5 records: the bad row is in chunk 2, which two workers
        # parse in the second round and three in the first
        schema, header, *rows = (workdir / "both.csv").read_text().splitlines()
        records = [rows[i % len(rows)] for i in range(23)]
        cells = records[12].split(",")
        cells[40] = "1_0x"
        records[12] = ",".join(cells)
        src = tmp_path / "bad.csv"
        src.write_text("\r\n".join([schema, header] + records) + "\r\n")
        monkeypatch.setattr(dataset, "CHUNK_ROWS", 5)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        outputs = []
        for n in (1, 2, 3):
            monkeypatch.setattr(workers, "_cores", lambda: n)
            monkeypatch.setattr(workers, "_MAX_WORKERS", n)
            with drained(fifo) as read:
                assert main(["predict", str(model_path), str(src), "-o", str(fifo)]) == 1
            outputs.append(read())
            assert capsys.readouterr().err == (
                "error: row 14: could not convert string to float: '1_0x'\n")
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert outputs[0].count(b"\r\n") == 1 + 10

    @pytest.mark.parametrize("command", ["cv", "report"])
    def test_a_worker_that_dies_fails_the_command(self, workdir, tmp_path, capsys, monkeypatch,
                                                  command):
        monkeypatch.setattr(workers, "_cores", lambda: 2)
        parent = os.getpid()
        train_tree = tree.train

        def dies_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_tree(*args, **kwargs)

        monkeypatch.setattr(tree, "train", dies_in_a_worker)
        out = tmp_path / "report.txt"
        assert main([command, str(workdir / "both.csv"), "-k", "3", "-o", str(out)]) == 1
        assert "error: worker" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cv", "report"])
    def test_huge_k_fails_before_making_folds(self, workdir, tmp_path, capsys, command):
        # both.csv holds 12 records of each class; 2,000,000 empty fold lists
        # took over 100 MB before the class sizes were checked
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main([command, str(workdir / "both.csv"), "-k", "2000000", "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == "error: class 'Conf' has 12 samples, need >= 2000000\n"
        assert peak < 16 * 2**20
        assert not out.exists()


class TestOutputToStdout:
    """`-o /dev/stdout` on a pipe gets the output alone: status lines go to
    stderr, and cv and report write their text there once."""

    @pytest.mark.parametrize("command", ["extract", "inspect", "train", "cv", "predict", "report"])
    def test_pipe_gets_the_files_bytes(self, workdir, model_path, tmp_path, command):
        regular = tmp_path / "regular"
        assert main(output_argv(command, workdir, model_path, regular)) == 0
        child = cli_child(output_argv(command, workdir, model_path, "/dev/stdout"))
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert out == regular.read_bytes()
        assert err == {
            "extract": b"wrote 12 flows to /dev/stdout\n",
            "train": b"trained on 24 records (IoTCam, Conf); model at /dev/stdout\n",
            "predict": b"predicted 24 rows into /dev/stdout\n",
        }.get(command, b"")
        text = out.decode()
        if command == "extract":
            schema, *rows = text.splitlines()
            assert schema.startswith("# camsieve-flow-stats")
            assert {len(row) for row in csv.reader(rows)} == {len(features.ALL_COLUMNS)}
        elif command == "train":
            assert json.loads(text)["payload"]["format"] == tree.MODEL_FORMAT
        elif command in ("cv", "report"):  # report holds two cross-validations
            assert text.count("mean accuracy") == (1 if command == "cv" else 2)


@pytest.fixture(params=["buffered", "unbuffered"])
def stdout_mode(request):
    """Environment variables for a child whose stdout is buffered, as by
    default, or unbuffered, as under PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if request.param == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestClosedStdout:
    """A reader that closes standard output early, as `head -n 1` does, ends
    the command with exit 0 and nothing on stderr."""

    def test_inspect_json_after_one_line(self, tmp_path, stdout_mode):
        pcap = tmp_path / "rtp.pcap"
        write_rtp_capture(pcap, 2000, 400, 100)
        assert main(["inspect", str(pcap), "--json", "-o", str(tmp_path / "report.json")]) == 0
        # more than twice what a pipe holds (64 KiB), so the writer meets the closed pipe
        assert (tmp_path / "report.json").stat().st_size > 2 * 65536
        child = cli_child(["inspect", str(pcap), "--json"], stdout_mode)
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        assert child.wait(timeout=120) == 0
        assert child.stderr.read() == b""
        child.stderr.close()

    def test_cv_after_none(self, workdir, stdout_mode):
        # cv's report is smaller than a pipe holds: the reader closes before it is written
        child = cli_child(["cv", str(workdir / "both.csv"), "-k", "4"], stdout_mode)
        child.stdout.close()
        assert child.wait(timeout=120) == 0
        assert child.stderr.read() == b""
        child.stderr.close()


class TestBadInputs:
    @pytest.mark.parametrize("text", [
        pytest.param("not json {", id="not-json"),
        pytest.param("\udcff", id="not-utf8"),
        pytest.param('["Skype", "Conf"]', id="list"),
        pytest.param('{"MyCam": "NotAClass"}', id="unknown-class"),
        pytest.param('{"MyCam": ["IoTCam"]}', id="non-string-class"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
    ])
    @pytest.mark.parametrize("command", ["train", "cv", "report"])
    def test_bad_taxonomy_is_data_error(self, workdir, tmp_path, capsys, command, text):
        tax = tmp_path / "tax.json"
        tax.write_bytes(text.encode("utf-8", "surrogateescape"))
        out = tmp_path / "out"
        assert main([command, str(workdir / "both.csv"), "--taxonomy", str(tax),
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tax}")
        assert not out.exists()

    def test_good_taxonomy_file_used(self, workdir, tmp_path, capsys):
        tax = tmp_path / "tax.json"
        tax.write_text('{"Conf": "Others"}')  # class names pass through unchanged
        assert main(["train", str(workdir / "both.csv"), "--taxonomy", str(tax),
                     "-o", str(tmp_path / "m.json")]) == 0
        assert set(load_model(tmp_path / "m.json").class_names) == {"IoTCam", "Conf"}

    @pytest.mark.parametrize("command, flag, value, message", [
        ("extract", "--flow-timeout", "nan", "need a finite number of seconds"),
        ("extract", "--flow-timeout", "inf", "need a finite number of seconds"),
        ("extract", "--flow-timeout", "1e308", "need a finite number of seconds"),
        ("extract", "--flow-timeout", "-1", "need at least 1e-06 seconds"),
        ("extract", "--flow-timeout", "0", "need at least 1e-06 seconds"),
        ("extract", "--flow-timeout", "1e-9", "need at least 1e-06 seconds"),
        ("extract", "--flow-timeout", "ten", "invalid number of seconds"),
        ("extract", "--activity-threshold", "nan", "need a finite number of seconds"),
        ("extract", "--activity-threshold", "-inf", "need a finite number of seconds"),
        ("extract", "--activity-threshold", "-0.5", "need at least 0 seconds"),
        ("inspect", "--flow-timeout", "nan", "need a finite number of seconds"),
        ("inspect", "--flow-timeout", "-1", "need at least 1e-06 seconds"),
    ])
    def test_bad_seconds_exit_2(self, workdir, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, str(workdir / "conf.pcap"), f"{flag}={value}", "-o", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_seconds_accepted(self, workdir, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["extract", str(workdir / "conf.pcap"), "--activity-threshold", "0",
                     "--flow-timeout", "1e-6", "-o", str(out)]) == 0
        assert len(read_csv(out).labels) > 12

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_synth_without_flows_exits_2(self, tmp_path, capsys, count):
        out = tmp_path / "x.pcap"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "camera", "-n", count, "-o", str(out)])
        assert exc.value.code == 2
        assert "need at least 1 flow" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_past_the_client_ports_exits_2(self, tmp_path, capsys):
        # flow i uses client port 20000 + i: 45,536 flows reach port 65535
        out = tmp_path / "x.pcap"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "camera", "-n", str(synth.MAX_FLOWS + 1), "-o", str(out)])
        assert exc.value.code == 2
        assert "need at most 45536 flows, got 45537" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        args = cli.build_parser().parse_args(["synth", "--kind", "camera", "-n", "45536",
                                              "-o", str(out)])
        assert args.count == synth.MAX_FLOWS == 45536


class TestSecondsToMicroseconds:
    """--flow-timeout and --activity-threshold take the whole microseconds of
    the text's exact decimal value: 1.001 is 1,001,000, where the float
    1.001 times 1e6 falls just below."""

    GAP_US = 1_001_000

    def extract_two_packets(self, tmp_path, *options):
        """extract's CSV of two UDP packets GAP_US apart."""
        frame = ipv4_frame(transport=udp_segment(5000, 6000, b"x"))
        pcap, out = tmp_path / "gap.pcap", tmp_path / "gap.csv"
        pcap.write_bytes(write_pcap_bytes([(0, frame), (self.GAP_US, frame)]))
        assert main(["extract", str(pcap), *options, "-o", str(out)]) == 0
        return read_csv(out)

    def test_every_millisecond_is_exact(self):
        parse = cli._seconds(minimum_us=1)
        assert [parse(f"{ms / 1000:.3f}") for ms in range(1, 100_001)] == list(
            range(1000, 100_000_001, 1000))
        assert parse("1.0019999999999999999999") == 1_001_999

    @pytest.mark.parametrize("timeout, flow_count", [("1.001", 1), ("1.000999", 2)])
    def test_flow_timeout_of_the_gap_keeps_one_flow(self, tmp_path, timeout, flow_count):
        values, _ = self.extract_two_packets(tmp_path, "--flow-timeout", timeout)
        assert len(values) == flow_count

    @pytest.mark.parametrize("threshold, idle_us", [("1.001", 0), ("1.000999", GAP_US)])
    def test_activity_threshold_of_the_gap_is_not_idle(self, tmp_path, threshold, idle_us):
        values, _ = self.extract_two_packets(tmp_path, "--activity-threshold", threshold)
        assert values[0][features.FEATURE_NAMES.index("Idle Max")] == idle_us


class TestDefaults:
    def test_default_seconds_come_from_the_library(self, capsys):
        assert int(cli.DEFAULT_FLOW_TIMEOUT_S * 1e6) == flows.DEFAULT_FLOW_TIMEOUT_US
        assert int(cli.DEFAULT_ACTIVITY_THRESHOLD_S * 1e6) == features.DEFAULT_ACTIVITY_THRESHOLD_US
        with pytest.raises(SystemExit):
            main(["extract", "-h"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "flow window in seconds (default 600)" in help_text
        assert "gap threshold in seconds (default 5)" in help_text


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "conf"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, argv, message", [
        pytest.param(command, ["-k", k], "need at least 2 folds", id=f"{k}-{command}")
        for k in ["0", "1", "-2"] for command in ["cv", "report"]
    ] + [
        pytest.param(command, [flag, value], message, id=f"{flag[2:]}={value}-{command}")
        for flag, value, message in [
            ("--max-depth", "-1", "need at least 0 levels"),
            ("--max-depth", "-3", "need at least 0 levels"),
            ("--max-depth", "2.5", "invalid int value"),
            ("--min-samples-split", "1", "need at least 2 samples"),
            ("--min-samples-split", "0", "need at least 2 samples"),
            ("--min-samples-split", "-4", "need at least 2 samples"),
        ]
        for command in ["train", "cv", "report"]
    ] + [
        # refused before the CSV is read, not after a full tree is trained
        pytest.param(command, [f"{flag}={value}"], message, id=f"{flag[2:]}={value}-{command}")
        for value, message in [
            ("nan", "need a finite number, got nan"),
            ("inf", "need a finite number, got inf"),
            ("-inf", "need a finite number, got -inf"),
            ("lots", "invalid number: 'lots'"),
        ]
        for command, flag in [("train", "--prune-threshold"), ("report", "--importance-threshold")]
    ])
    def test_fewer_than_two_folds_exits_2(self, workdir, tmp_path, capsys, command, argv, message):
        """-k, --max-depth and --min-samples-split below their minimum, and a
        pruning threshold that is not a finite number, are usage errors."""
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main([command, str(workdir / "both.csv"), *argv, "-o", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTrainCvPredict:
    def test_train_then_predict(self, workdir, capsys):
        model_path = workdir / "model.json"
        assert main(["train", str(workdir / "both.csv"), "-o", str(model_path)]) == 0
        model = load_model(model_path)
        assert set(model.class_names) == {"IoTCam", "Conf"}

        out = workdir / "scored.csv"
        assert main(["predict", str(model_path), str(workdir / "conf.csv"),
                     "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[-2:] == ["Predicted Class", "Prediction Probability"]
        for line in lines[1:]:
            cells = line.rsplit(",", 2)
            assert cells[1] == "Conf"
            assert 0.0 <= float(cells[2]) <= 1.0
        # each scored row starts with its input row, cell for cell
        extracted = (workdir / "conf.csv").read_text().splitlines()[1:]
        assert [line.rsplit(",", 2)[0] for line in lines] == extracted

    def test_cv_prints_and_writes_identical_report(self, workdir, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(["cv", str(workdir / "both.csv"), "-k", "4", "-o", str(out1)]) == 0
        printed = capsys.readouterr().out
        assert "mean accuracy" in printed
        assert "confusion matrix" in printed
        assert main(["cv", str(workdir / "both.csv"), "-k", "4", "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_library_gives_the_commands_model_and_report(self, workdir, tmp_path):
        # the README's library use: read, clean, then train or cross_validate
        # with their defaults give the bytes that train and cv write; both.csv
        # holds Conf before IoTCam, so an alphabetical default order would not
        csv_path = workdir / "both.csv"
        values, labels = read_csv(csv_path, dataset.default_taxonomy())
        X, _ = dataset.clean(values)
        model = tree.train(X, labels, features.FEATURE_NAMES)
        assert model.class_names == ("IoTCam", "Conf")
        assert main(["train", str(csv_path), "-o", str(tmp_path / "model.json")]) == 0
        assert (tmp_path / "model.json").read_bytes() == tree.model_bytes(model)
        report = tree.cross_validate(X, labels, features.FEATURE_NAMES, k=4)
        assert main(["cv", str(csv_path), "-k", "4", "-o", str(tmp_path / "cv.txt")]) == 0
        assert (tmp_path / "cv.txt").read_text() == report.render()

    def test_every_tree_of_report_has_the_class_order(self, workdir, tmp_path, monkeypatch):
        # both CVs' fold trees, the full tree and the 80/20 hold-out tree, all
        # grown on one worker: a forked worker's trees would not be recorded here
        monkeypatch.setattr(workers, "_cores", lambda: 1)
        trees = []
        train_tree = tree.train

        def recording_train(*args, **kwargs):
            trees.append(train_tree(*args, **kwargs))
            return trees[-1]

        monkeypatch.setattr(tree, "train", recording_train)
        assert main(["report", str(workdir / "both.csv"), "-k", "4",
                     "-o", str(tmp_path / "report.txt")]) == 0
        held_out = dataset.stratified_split(read_csv(workdir / "both.csv").labels, 42)[1]
        assert len(trees) == 4 + 2 + 4
        assert [t.training_meta["n_samples"] for t in trees].count(24 - len(held_out)) == 1
        assert {t.class_names for t in trees} == {("IoTCam", "Conf")}

    def test_train_with_pruning(self, workdir, tmp_path, capsys):
        model_path = tmp_path / "pruned.json"
        assert main(["train", str(workdir / "both.csv"), "-o", str(model_path),
                     "--prune-threshold", "1e-4"]) == 0
        model = load_model(model_path)
        assert model.training_meta["importance_threshold"] == 1e-4
        assert model.training_meta["candidate_features"] is not None

    def test_predict_schema_hash_mismatch(self, workdir, tmp_path, capsys):
        model_path = tmp_path / "alien.json"
        assert main(["train", str(workdir / "both.csv"), "-o", str(model_path)]) == 0
        blob = json.loads(model_path.read_text())
        blob["payload"]["feature_names"] = ["f%d" % i for i in range(77)]
        import hashlib

        body = json.dumps(blob["payload"], sort_keys=True, separators=(",", ":"))
        blob["checksum"] = hashlib.sha256(body.encode()).hexdigest()
        model_path.write_text(json.dumps(blob, sort_keys=True, separators=(",", ":")))

        code = main(["predict", str(model_path), str(workdir / "conf.csv"),
                     "-o", str(tmp_path / "never.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert not (tmp_path / "never.csv").exists()
        # the diagnostic names both hashes
        assert err.count("hash") >= 2

    @pytest.mark.parametrize("command", ["train", "cv", "report"])
    def test_header_only_csv_is_data_error(self, workdir, tmp_path, capsys, command):
        empty = tmp_path / "empty.csv"
        schema_and_header = (workdir / "both.csv").read_text().splitlines()[:2]
        empty.write_text("\n".join(schema_and_header) + "\n")
        out = tmp_path / "out"
        assert main([command, str(empty), "-o", str(out)]) == 1
        assert "error: cannot train on an empty dataset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv", "report"])
    def test_unlabeled_record_is_data_error(self, workdir, tmp_path, capsys, command):
        schema, header, rows = csv_lines(workdir / "conf.csv")
        for i in (4, 8):  # records 5 and 9 lose their label, as extract without --label writes
            rows[i] = rows[i].rsplit(",", 1)[0] + ","
        src, out = tmp_path / "unlabeled.csv", tmp_path / "out"
        src.write_bytes("".join(line + "\r\n" for line in [schema, header, *rows]).encode())
        assert main([command, str(src), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {src}: record 5 has no label\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "# camsieve-flow-stats v2", "# camsieve-flow-stats v1.5", "# camsieve-flow-statsXYZ v9",
    ])
    def test_other_schema_version_is_data_error(self, workdir, tmp_path, capsys, line):
        _, header, rows = csv_lines(workdir / "conf.csv")
        src, out = tmp_path / "other.csv", tmp_path / "out"
        src.write_bytes("".join(row + "\r\n" for row in [line, header, *rows]).encode())
        assert main(["train", str(src), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {src}: unrecognized schema line {line!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv", "report"])
    def test_reads_and_cleans_through_the_dataset_module(self, workdir, tmp_path, monkeypatch,
                                                         command):
        # the benchmark's traced run hooks these module attributes; predict
        # cleans through the module as well, so only a per-command check sees
        # a model command that bypasses them
        calls = []
        for name in ("read_csv", "clean"):
            def recorded(*args, _name=name, _fn=getattr(dataset, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(dataset, name, recorded)
        folds = [] if command == "train" else ["-k", "2"]
        assert main([command, str(workdir / "both.csv"), *folds, "-o", str(tmp_path / "out")]) == 0
        assert calls == ["read_csv", "clean"]

    def test_corrupt_model_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("{}")
        assert main(["predict", str(bad), str(workdir / "conf.csv"),
                     "-o", str(tmp_path / "x.csv")]) == 1



@pytest.fixture(scope="module")
def model_path(workdir):
    path = workdir / "stream_model.json"
    assert main(["train", str(workdir / "both.csv"), "-o", str(path)]) == 0
    return path


# (kind, position, bytes): flip the byte at position by bytes[0], cut
# len(bytes) bytes there, or insert bytes there; positions wrap around, and
# the bytes are any bytes or the characters of CSV numbers and rows
byte_edits = st.lists(
    st.tuples(
        st.sampled_from(["flip", "cut", "insert"]), st.integers(0, 1 << 16),
        st.one_of(st.binary(min_size=1, max_size=8),
                  st.text("0123456789.-+eEinfaN,\"\r\n", min_size=1, max_size=8).map(str.encode)),
    ),
    min_size=1, max_size=3,
)


def edited(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for kind, position, blob in edits:
        at = position % (len(data) + 1)
        if kind == "insert":
            data[at:at] = blob
        elif kind == "cut":
            del data[at : at + len(blob)]
        elif data:  # a flip
            data[position % len(data)] ^= blob[0] or 0xFF
    return bytes(data)


class TestEditedInputs:
    """The model commands on a flow CSV or taxonomy with bytes flipped, cut
    or inserted: each exits 0 or 1, and none raises."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(byte_edits)
    def test_model_commands_exit_0_or_1(self, workdir, model_path, tmp_path, edits):
        flows_csv = tmp_path / "edited.csv"
        flows_csv.write_bytes(edited((workdir / "both.csv").read_bytes(), edits))
        for argv in (["train", flows_csv, "-o", tmp_path / "model.json"],
                     ["cv", flows_csv, "-k", "2", "-o", tmp_path / "cv.txt"],
                     ["predict", model_path, flows_csv, "-o", tmp_path / "scored.csv"]):
            assert main([str(a) for a in argv]) in (0, 1), argv

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(byte_edits)
    def test_train_with_an_edited_taxonomy_exits_0_or_1(self, workdir, tmp_path, edits):
        # a taxonomy has no canonical writer, so it gets only this property
        taxonomy = tmp_path / "taxonomy.json"
        taxonomy.write_bytes(edited(b'{"Conf": "Others", "MyCam": "IoTCam"}', edits))
        argv = ["train", workdir / "both.csv", "--taxonomy", taxonomy, "-o", tmp_path / "m.json"]
        assert main([str(a) for a in argv]) in (0, 1)


def csv_lines(path):
    """The schema line, the column header and the data rows of a CSV that
    camsieve wrote, without their CRLF endings."""
    schema, header, *rows = path.read_bytes().decode().split("\r\n")[:-1]
    return schema, header, rows


class TestPeakRss:
    def test_reports_the_commands_own_peak(self, tmp_path):
        ballast = b"\x01" * (150 << 20)  # written, so resident
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > 150 << 10
        peak = run_for_peak_rss(["synth", "--kind", "conf", "-n", "1", "-o",
                                 str(tmp_path / "one.pcap")])
        del ballast
        assert peak < 100 << 10, f"peak RSS {peak} kB"


class TestPredictStreaming:
    def test_scored_row_is_input_record_then_two_cells(self, workdir, model_path, tmp_path):
        schema, header, rows = csv_lines(workdir / "conf.csv")
        hand = rows[3].split(",")
        spelled = [i for i in range(8, 82) if "." in hand[i] and "e" not in hand[i]]
        hand[6] = f'"{hand[6]}"'  # needless quotes
        hand[7] = f" {hand[7]} "
        hand[spelled[0]] += "0"  # e.g. 1.5 -> 1.50
        records = [
            '"weird,""id"""' + rows[0][rows[0].index(","):],
            rows[1].rsplit(",", 1)[0] + ',"Conf, or not"',
            rows[2].rsplit(",", 1)[0] + ',"two\r\nlines"',
            ",".join(hand),
            rows[3],
        ]
        text = (schema + "\r\n" + header + "\r\n" + records[0] + "\r\n\r\n" + records[1]
                + "\n\n\n" + records[2] + "\r\n" + records[3] + "\n" + records[4] + "\r\n\r\n")
        src, out = tmp_path / "hand.csv", tmp_path / "scored.csv"
        src.write_bytes(text.encode())
        assert main(["predict", str(model_path), str(src), "-o", str(out)]) == 0

        scored = re.escape(header + ",Predicted Class,Prediction Probability\r\n")
        scored += "".join(re.escape(r) + r",(IoTCam|Conf),([^,\r\n]+)\r\n" for r in records)
        out_text = out.read_bytes().decode()
        match = re.fullmatch(scored, out_text)
        assert match, "a scored row is not its input record followed by two cells"
        cells = match.groups()
        # the hand spellings score as the values they spell
        assert cells[6:8] == cells[8:10]
        # read as CSV, each scored row is its input row's cells and two more
        read = [row for row in csv.reader(io.StringIO(text, newline="")) if row][1:]
        assert [row[:-2] for row in csv.reader(io.StringIO(out_text, newline=""))] == read

    def test_header_only_writes_only_the_header(self, workdir, model_path, tmp_path, capsys):
        schema, header, _ = csv_lines(workdir / "conf.csv")
        src, out = tmp_path / "empty.csv", tmp_path / "scored.csv"
        src.write_bytes(f"{schema}\r\n{header}\r\n".encode())
        assert main(["predict", str(model_path), str(src), "-o", str(out)]) == 0
        assert out.read_bytes() == f"{header},Predicted Class,Prediction Probability\r\n".encode()
        assert "predicted 0 rows" in capsys.readouterr().err

    def test_class_names_are_quoted_as_csv_cells(self, workdir, tmp_path):
        payload = small_model_payload()
        payload["class_names"] = ["", 'say "cam", twice']
        firsts = sorted(read_csv(workdir / "both.csv").values[:, 0].tolist())
        payload["nodes"][0][1] = firsts[len(firsts) // 2]  # the root sends rows both ways
        model, out = tmp_path / "model.json", tmp_path / "scored.csv"
        write_model_payload(model, payload)
        assert main(["predict", str(model), str(workdir / "both.csv"), "-o", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_bytes().decode(), newline="")))[1:]
        assert {len(row) for row in rows} == {len(features.ALL_COLUMNS) + 2}
        assert {row[-2] for row in rows} == {"", 'say "cam", twice'}

    @pytest.mark.parametrize("command", ["train", "cv", "report", "predict"])
    def test_csv_not_utf8_is_data_error(self, workdir, model_path, tmp_path, capsys, command):
        lines = (workdir / "both.csv").read_bytes().split(b"\n")[:5]
        lines[3] = lines[3].rsplit(b",", 1)[0] + ",Cönf".encode("latin-1")
        src, out = tmp_path / "latin1.csv", tmp_path / "out"
        src.write_bytes(b"\n".join(lines) + b"\n")
        args = [str(model_path)] if command == "predict" else []
        assert main([command, *args, str(src), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {src}: not UTF-8")
        assert not out.exists()

    def test_peak_memory_does_not_grow_with_the_input(self, workdir, model_path, tmp_path):
        schema, header, rows = csv_lines(workdir / "conf.csv")
        peaks = []
        for n in (4096, 32_768):
            src, out = tmp_path / f"{n}.csv", tmp_path / f"{n}.scored.csv"
            with open(src, "w", encoding="utf-8", newline="") as fh:
                fh.write(f"{schema}\r\n{header}\r\n")
                fh.writelines(rows[i % len(rows)] + "\r\n" for i in range(n))
            peaks.append(run_for_peak_rss(["predict", str(model_path), str(src), "-o", str(out)]))
        assert peaks[1] <= 1.1 * peaks[0], f"peak RSS {peaks[0]} kB on N rows, {peaks[1]} kB on 8N"


class TestTrainMemory:
    def test_peak_grows_with_the_matrix_not_with_records(self, tmp_path):
        rng = random.Random(7)
        peaks = []
        for n in (2000, 8000):
            src = tmp_path / f"{n}.csv"
            write_csv([
                features.LabeledRecord(f"f{i}", "10.0.0.1", "10.0.0.2", 1024, 443, 6,
                                       tuple(rng.random() for _ in features.FEATURE_NAMES),
                                       ("IoTCam", "Conf")[i % 2])
                for i in range(n)
            ], src)
            peaks.append(run_for_peak_rss(["train", str(src), "--max-depth", "1",
                                           "-o", str(tmp_path / f"{n}.json")]))
        matrix_kb = 6000 * len(features.FEATURE_NAMES) * 8 // 1024  # the extra rows' matrix
        assert peaks[1] - peaks[0] <= 5 * matrix_kb, (
            f"peak RSS {peaks[0]} kB on 2,000 rows, {peaks[1]} kB on 8,000: "
            f"{matrix_kb} kB more matrix"
        )


class TestOverlongCell:
    """A cell longer than csv.field_size_limit() (131,072 characters by
    default) is a data error naming its row, quoted or not."""

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize("command", ["train", "cv", "report", "predict"])
    def test_long_flow_id_is_row_error(self, workdir, model_path, tmp_path, capsys,
                                       command, quoted):
        schema, header, rows = csv_lines(workdir / "conf.csv")
        flow_id = "f" * 200_000
        if quoted:
            flow_id = f'"{flow_id}"'
        rows[1] = flow_id + rows[1][rows[1].index(","):]
        src, out = tmp_path / "long.csv", tmp_path / "out"
        src.write_bytes("".join(line + "\r\n" for line in [schema, header, *rows]).encode())
        args = [str(model_path)] if command == "predict" else []
        assert main([command, *args, str(src), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row 3: field larger than field limit"), err[:200]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_long_header_cell_is_schema_mismatch(self, workdir, model_path, tmp_path, capsys,
                                                 command):
        schema, header, rows = csv_lines(workdir / "conf.csv")
        header = "F" * 200_000 + header[header.index(","):]
        src, out = tmp_path / "long.csv", tmp_path / "out"
        src.write_bytes("".join(line + "\r\n" for line in [schema, header, *rows]).encode())
        args = [str(model_path)] if command == "predict" else []
        assert main([command, *args, str(src), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: unreadable header row: field larger"), err[:200]
        assert not out.exists()


def write_rtp_capture(path, frames, flows, payload_size):
    """A conf-like capture: `flows` RTP-looking UDP flows taking turns, one
    frame a millisecond, each payload `payload_size` bytes."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for i in range(frames):
            flow, seq = i % flows, i // flows
            rtp = struct.pack("!BBHII", 0x80, 96, seq % 65536, seq * 3000, flow)
            segment = udp_segment(40000 + flow, 50000, rtp + bytes(payload_size - len(rtp)))
            frame = ipv4_frame("10.0.0.1", "10.0.1.1", transport=segment)
            fh.write(struct.pack("<IIII", i // 1000, i % 1000 * 1000, len(frame), len(frame)))
            fh.write(frame)


def write_tcp_capture(path, frames, flows, payload_size):
    """A capture of `flows` TCP flows taking turns, one frame a millisecond,
    each an ACK from the client with a `payload_size`-byte payload; no flow
    ends before the capture does."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for i in range(frames):
            flow, seq = i % flows, i // flows
            segment = tcp_segment(40000 + flow, 80, seq=seq * payload_size,
                                  payload=bytes(payload_size))
            frame = ipv4_frame("10.0.0.1", "10.0.1.1", proto=6, transport=segment)
            fh.write(struct.pack("<IIII", i // 1000, i % 1000 * 1000, len(frame), len(frame)))
            fh.write(frame)


class TestPayloadMemory:
    """Flows keep PAYLOAD_HEAD payload bytes a packet, not the payload, so two
    captures that differ only in payload size peak alike."""

    FRAMES = 20_000
    FLOWS = 100

    @pytest.mark.parametrize("command", ["extract", "inspect"])
    def test_peak_does_not_grow_with_payload_bytes(self, tmp_path, command):
        sizes = (100, 1400)
        assert PAYLOAD_HEAD < min(sizes)  # both keep the same bytes per packet
        peaks = []
        for size in sizes:
            pcap, out = tmp_path / f"{size}.pcap", tmp_path / f"{size}.out"
            write_rtp_capture(pcap, self.FRAMES, self.FLOWS, size)
            peaks.append(run_for_peak_rss([command, str(pcap), "-o", str(out)]))
        payload_kb = self.FRAMES * (sizes[1] - sizes[0]) // 1024
        assert peaks[1] - peaks[0] <= payload_kb // 10, (
            f"peak RSS {peaks[0]} kB with {sizes[0]}-byte payloads, {peaks[1]} kB with "
            f"{sizes[1]}-byte ones: {payload_kb} kB more payload bytes"
        )


class TestPipedCapture:
    """A capture read from a pipe, which cannot be read twice, gives the
    same output as the file."""

    @pytest.mark.parametrize("command", ["extract", "inspect"])
    def test_pipe_gives_the_files_output(self, workdir, tmp_path, command):
        pcap = workdir / "conf.pcap"
        from_file, from_pipe = tmp_path / "file.out", tmp_path / "pipe.out"
        assert main([command, str(pcap), "-o", str(from_file)]) == 0
        src_dir = Path(cli.__file__).resolve().parents[1]
        subprocess.run(
            [sys.executable, "-m", "camsieve.cli", command, "/dev/stdin", "-o", str(from_pipe)],
            input=pcap.read_bytes(), env={**os.environ, "PYTHONPATH": str(src_dir)},
            capture_output=True, check=True, timeout=120,
        )
        assert from_pipe.read_bytes() == from_file.read_bytes()


class TestDisorderedCapture:
    """A regular file is assembled as it is read; when a timestamp falls, it is
    read again sorted, and gives the sorted capture's output."""

    @pytest.mark.parametrize("command", [["extract", "--label", "Conf"], ["inspect", "--json"]])
    @pytest.mark.parametrize("fall_at", [1, "middle", -1])
    def test_one_fall_gives_the_sorted_captures_output(self, workdir, tmp_path, command,
                                                       fall_at):
        pcap = workdir / "conf.pcap"
        frames = sum(1 for _ in packets.open_capture(pcap))
        disordered = tmp_path / "disordered.pcap"
        disordered.write_bytes(
            swap_records(pcap.read_bytes(), frames // 2 if fall_at == "middle" else fall_at)
        )
        with pytest.raises(OutOfOrderTimestamp):
            flows.assemble_flows(packets.read_packets(disordered))
        from_sorted, from_disordered = tmp_path / "sorted.out", tmp_path / "disordered.out"
        assert main([command[0], str(pcap), *command[1:], "-o", str(from_sorted)]) == 0
        assert main([command[0], str(disordered), *command[1:],
                     "-o", str(from_disordered)]) == 0
        assert from_disordered.read_bytes() == from_sorted.read_bytes()


# runs each CLI command of the JSON list in its first argument
RUN_COMMANDS = """
import json, sys
from camsieve.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def loads(module, script, *args) -> bool:
    """Whether a fresh interpreter has module loaded after running script."""
    src_dir = Path(cli.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", script + f"\nprint({module!r} in sys.modules)", *args],
        env={**os.environ, "PYTHONPATH": str(src_dir)}, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return child.stdout.split()[-1] == "True"


class TestCaptureCommandsDoNotHash:
    """extract and inspect never hash, so they do not pay for loading OpenSSL,
    and the capture commands grow no tree, so they do not load multiprocessing."""

    def test_no_hashlib_after_extract_and_inspect(self, workdir, tmp_path):
        if loads("hashlib", "import sys, numpy"):
            # numpy 1.x's numpy.random does
            pytest.skip("import numpy alone loads hashlib")
        pcap = str(workdir / "conf.pcap")
        commands = [
            ["extract", pcap, "-o", str(tmp_path / "conf.csv")],
            ["inspect", pcap, "--json", "-o", str(tmp_path / "conf.json")],
        ]
        assert not loads("hashlib", RUN_COMMANDS, json.dumps(commands))

    def test_no_multiprocessing_after_synth_extract_and_inspect(self, tmp_path):
        pcap = str(tmp_path / "conf.pcap")
        commands = [
            ["synth", "--kind", "conf", "-n", "20", "--seed", "3", "-o", pcap],
            ["extract", pcap, "-o", str(tmp_path / "conf.csv")],
            ["inspect", pcap, "--json", "-o", str(tmp_path / "conf.json")],
        ]
        assert not loads("multiprocessing", RUN_COMMANDS, json.dumps(commands))


class TestPacketMemory:
    """A flow holds a few dozen bytes a packet in columns, and the capture is
    read in time order without a list of its records, so the peak grows by
    far less than a PacketRecord (about 350 bytes) per added frame."""

    FLOWS = 100
    FRAMES = (20_000, 80_000)
    MAX_BYTES_PER_FRAME = 100

    @pytest.mark.parametrize("command", ["extract", "inspect"])
    def test_peak_grows_by_few_bytes_per_frame(self, tmp_path, command):
        peaks = []
        for frames in self.FRAMES:
            pcap, out = tmp_path / f"{frames}.pcap", tmp_path / f"{frames}.out"
            write_rtp_capture(pcap, frames, self.FLOWS, 100)
            peaks.append(run_for_peak_rss([command, str(pcap), "-o", str(out)]))
            pcap.unlink()
        per_frame = (peaks[1] - peaks[0]) * 1024 / (self.FRAMES[1] - self.FRAMES[0])
        assert per_frame < self.MAX_BYTES_PER_FRAME, (
            f"peak RSS {peaks[0]} kB at {self.FRAMES[0]} frames, {peaks[1]} kB at "
            f"{self.FRAMES[1]}: {per_frame:.0f} bytes a frame"
        )


class TestExtractRowMemory:
    """extract makes each flow's record as write_csv writes its row. The
    writer still holds the record before while the next one is made, so at
    most two are alive at once, whatever the number of flows."""

    def test_at_most_two_records_alive(self, tmp_path, monkeypatch):
        pcap = tmp_path / "conf.pcap"
        synth.generate(synth.SynthProfile(synth.TrafficKind.CONF, 40, seed=3), pcap)
        compute = features.compute_features
        made, most_alive = [], 0

        def watched(*args):
            nonlocal most_alive
            record = compute(*args)
            made.append(weakref.ref(record))
            most_alive = max(most_alive, sum(ref() is not None for ref in made))
            return record

        monkeypatch.setattr(features, "compute_features", watched)
        assert main(["extract", str(pcap), "-o", str(tmp_path / "conf.csv")]) == 0
        assert len(made) == 40
        assert most_alive <= 2


class TestInspectFlowMemory:
    """inspect's flows keep no per-packet columns, only running counts, so
    what `read_flows` returns for inspect does not grow with the packets of a
    flow, UDP or TCP."""

    FLOWS = 100
    # every count a flow keeps is above 256 at both sizes: CPython shares the
    # int objects of -5 to 256, so below that a count holds no bytes of its
    # own, and each of a flow's five counts would add 32 bytes
    PACKETS = (300, 1200)

    def held_bytes(self, pcap) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            flow_list = flows.read_flows(pcap, flow_type=protocols.InspectedFlow)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(flow_list) == self.FLOWS
        return held

    def assert_same_bytes(self, tmp_path, write_capture):
        held = []
        for per_flow in (3, *self.PACKETS):  # the first fills what a first run fills
            pcap = tmp_path / f"{per_flow}.pcap"
            write_capture(pcap, self.FLOWS * per_flow, self.FLOWS, 100)
            held.append(self.held_bytes(pcap))
        del held[0]
        assert abs(held[1] - held[0]) <= 1024, (
            f"{held} bytes held at {self.PACKETS} packets a flow"
        )

    def test_same_bytes_for_more_packets(self, tmp_path):
        self.assert_same_bytes(tmp_path, write_rtp_capture)

    def test_same_bytes_for_more_tcp_packets(self, tmp_path):
        self.assert_same_bytes(tmp_path, write_tcp_capture)


class TestInspect:
    def test_text_report_mentions_rtp(self, workdir, capsys):
        assert main(["inspect", str(workdir / "conf.pcap")]) == 0
        out = capsys.readouterr().out
        assert "hint=RTP" in out
        assert "port profile" in out

    def test_json_report_structure(self, workdir, tmp_path):
        out = tmp_path / "report.json"
        assert main(["inspect", str(workdir / "conf.pcap"), "--json", "--app", "teams",
                     "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["app_context"] == "TEAMS"
        assert len(data["flows"]) == 12
        rtp_flows = [f for f in data["flows"] if f["hint"] == "RTP"]
        assert rtp_flows and all(f["rtp_continuity"] == 1.0 for f in rtp_flows)
        assert abs(sum(data["port_profile_dst"].values()) - 1.0) < 1e-9

    def test_camera_traffic_has_no_rtp(self, workdir, capsys):
        assert main(["inspect", str(workdir / "camera.pcap")]) == 0
        out = capsys.readouterr().out
        assert "hint=RTP" not in out


class TestReport:
    def test_report_honours_min_samples_split(self, tmp_path, capsys):
        # 30 flows a class: 4-fold training sets of 45 rows stay single leaves at
        # min-samples-split 50, while the 60-row full model can still split
        parts = []
        for kind, label in (("conf", "Conf"), ("camera", "IoTCam")):
            pcap, out = tmp_path / f"{kind}.pcap", tmp_path / f"{kind}.csv"
            assert main(["synth", "--kind", kind, "-n", "30", "--seed", "3", "-o", str(pcap)]) == 0
            assert main(["extract", str(pcap), "--label", label, "-o", str(out)]) == 0
            parts.append(out.read_text().splitlines())
        both = tmp_path / "both.csv"
        both.write_text("\n".join(parts[0] + parts[1][2:]) + "\n")

        flags = ["-k", "4", "--min-samples-split", "50"]
        assert main(["cv", str(both), *flags, "-o", str(tmp_path / "cv.txt")]) == 0
        assert main(["report", str(both), *flags, "-o", str(tmp_path / "report.txt")]) == 0
        assert main(["cv", str(both), "-k", "4", "-o", str(tmp_path / "default.txt")]) == 0
        cv_block = (tmp_path / "cv.txt").read_text()
        report = (tmp_path / "report.txt").read_text()
        assert "all features:\n" + cv_block + "\n" in report
        assert cv_block != (tmp_path / "default.txt").read_text()

    def test_report_sections(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["report", str(workdir / "both.csv"), "-k", "4", "-o", str(out)]) == 0
        text = out.read_text()
        assert "dataset summary:" in text
        assert "all features:" in text
        assert "importance pruning at" in text
        assert "max class probability >= 0.9" in text
