#!/usr/bin/env python3
"""Smoke-drives cwatpg_serve over cwatpg.rpc/1 and validates responses.

Starts the daemon, then walks the whole request surface: load_circuit,
status, fsim, run_atpg (serial + parallel determinism check, and the
registry growing only with the first incremental job), cancel (unknown
job and a live one), intentionally malformed requests, and a graceful
shutdown. Exits nonzero on the first schema or semantics
violation — the CI service-smoke job runs exactly this.

With --chaos-kill it instead exercises the crash-recovery journal: start
the daemon with --journal and a failpoint schedule that wedges the worker,
submit a job, SIGKILL the daemon mid-job, restart it on the same journal,
and assert the orphaned job is reported as `interrupted` (and that a third
boot is quiet again). This is the "kill -9 is survivable" guarantee.

With --cluster the binary must be cwatpg_cluster: boot a SUPERVISED
coordinator with two spawned worker daemons, then kill -9 every worker
once mid-job (current pids read from the cluster `status`). Each job must
still complete with totals and tests identical to an undisturbed run,
each dead slot must come back as generation 2 with `last_exit` "signal 9"
and no zombie left behind, and the totals in `status` must accumulate
across generations. This is the self-healing worker-failover guarantee.
A forwarded incremental job must leave the coordinator's registry as the
load left it.

With --tcp the daemon is booted with --listen on an ephemeral loopback
port (parsed from its stderr banner) and driven over real sockets: two
concurrent clients with deliberately colliding request ids, per-connection
response routing, an over-the-cap connection answered `overloaded`, an
abrupt client disconnect that must cancel only that client's jobs, and a
TCP shutdown drain. A second daemon then takes 16 connections that each
send only a length header just under the 64 MiB cap: its VmRSS must grow
by less than 32 MiB, and it must still answer and shut down cleanly.

With --tcp-cluster (two binaries: cwatpg_cluster then cwatpg_serve) the
workers are REMOTE: two `cwatpg_serve --listen` daemons on loopback, a
coordinator attached via --connect and itself booted with --listen, then
kill -9 of one worker process mid-job. The job must finish with
classification identical to the undisturbed reference — the
cross-machine worker-failover guarantee. While a job runs, a second
connection to the coordinator gets its `status` and, under the same
request id, its own job's answer.

usage: service_smoke.py /path/to/cwatpg_serve [--chaos-kill | --tcp]
       service_smoke.py /path/to/cwatpg_cluster --cluster
       service_smoke.py /path/to/cwatpg_cluster /path/to/cwatpg_serve --tcp-cluster
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

RPC_SCHEMA = "cwatpg.rpc/1"

# A 4-input, 2-output carry/sum slice — small enough to solve instantly,
# large enough to have a real fault list.
BENCH_TEXT = """
# smoke circuit
INPUT(a)
INPUT(b)
INPUT(cin)
INPUT(en)
OUTPUT(sum)
OUTPUT(carry)
x1 = XOR(a, b)
sum = XOR(x1, cin)
a1 = AND(a, b)
a2 = AND(x1, cin)
c1 = OR(a1, a2)
carry = AND(c1, en)
"""


class Wire:
    """cwatpg.rpc/1 framing + envelope checks over a binary stream pair."""

    def __init__(self, win, rout):
        self.win = win
        self.rout = rout
        self.next_id = 1

    def send(self, kind, params=None, req_id=None):
        if req_id is None:
            req_id = self.next_id
            self.next_id += 1
        frame = {"schema": RPC_SCHEMA, "id": req_id, "kind": kind,
                 "params": params or {}}
        payload = json.dumps(frame).encode()
        self.win.write(b"%d\n%s" % (len(payload), payload))
        self.win.flush()
        return req_id

    def recv(self):
        header = b""
        while not header.endswith(b"\n"):
            byte = self.rout.read(1)
            if not byte:
                raise SystemExit("FAIL: server closed stream mid-conversation")
            header += byte
        payload = self.rout.read(int(header))
        response = json.loads(payload)
        check(response.get("schema") == RPC_SCHEMA,
              f"response schema: {response}")
        check("id" in response and "ok" in response,
              f"response envelope: {response}")
        if not response["ok"]:
            err = response.get("error", {})
            check("code" in err and "message" in err,
                  f"error envelope: {response}")
        return response

    def call(self, kind, params=None):
        """Send one request and read one response (in-order control plane)."""
        req_id = self.send(kind, params)
        response = self.recv()
        check(response["id"] == req_id,
              f"response id {response['id']} matches request id {req_id}")
        return response


class Client(Wire):
    """A daemon spawned over stdio pipes, spoken to through its stdin/stdout."""

    def __init__(self, binary, extra_args=(), env=None,
                 base_args=("--threads=2", "--queue-capacity=8")):
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        self.proc = subprocess.Popen(
            [binary, *base_args, *extra_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=full_env,
        )
        super().__init__(self.proc.stdin, self.proc.stdout)


class TcpClient(Wire):
    """One TCP connection to a --listen daemon."""

    def __init__(self, port, host="127.0.0.1"):
        self.sock = socket.create_connection((host, port), timeout=60)
        f = self.sock.makefile("rwb")
        super().__init__(f, f)

    def close(self):
        """Abrupt disconnect — exactly what a crashed client looks like.

        The makefile() object holds an io-ref on the socket, so
        sock.close() alone never releases the fd; shutdown() tears the
        connection down immediately regardless."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.win.close()
        except OSError:
            pass
        self.sock.close()


def wait_for_listen(proc):
    """Parses `... listening on HOST:PORT ...` from the daemon's stderr
    banner (the stable contract for ephemeral --listen=...:0 ports), then
    keeps draining stderr on a thread so later diagnostics can't block the
    daemon."""
    pattern = re.compile(rb"listening on [0-9.]+:([0-9]+)")
    line = b""
    while True:
        byte = proc.stderr.read(1)
        if not byte:
            raise SystemExit("FAIL: daemon exited before announcing its port")
        line += byte
        if byte != b"\n":
            continue
        m = pattern.search(line)
        if m:
            port = int(m.group(1))
            threading.Thread(target=_forward_stderr, args=(proc.stderr,),
                             daemon=True).start()
            return port
        line = b""


def _forward_stderr(stream):
    for chunk in iter(lambda: stream.read(4096), b""):
        sys.stderr.buffer.write(chunk)
        sys.stderr.buffer.flush()


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}"[:100])


def chaos_kill(binary):
    """kill -9 mid-job, restart on the same journal, expect `interrupted`."""
    journal = os.path.join(tempfile.mkdtemp(prefix="cwatpg_smoke_"),
                           "journal.jsonl")

    # Boot 1: the worker is wedged by a failpoint so the job cannot finish
    # before we SIGKILL the process.
    c = Client(binary, extra_args=[f"--journal={journal}"],
               env={"CWATPG_FAILPOINTS":
                    "svc.server.execute.stall=always@60000;"
                    "svc.server.stall.ignore_cancel=always"})
    r = c.call("load_circuit", {"name": "chaos", "text": BENCH_TEXT})
    check(r["ok"], "boot 1: load_circuit succeeds")
    key = r["result"]["circuit"]["key"]
    job_id = c.send("run_atpg", {"circuit": key, "seed": 1})
    # A status round-trip after the submit proves the reader thread has
    # processed (and therefore journaled) the admission: frames are
    # handled in order, and `accepted` is fsync'd before the queue push.
    # A job thread starts the (wedged) job on its own, so poll until it
    # is running: the kill must land mid-job.
    for _ in range(500):
        r = c.call("status")
        if r["result"]["in_flight"] >= 1:
            break
        time.sleep(0.01)
    check(r["result"]["in_flight"] >= 1, "boot 1: job is in flight")
    check(r["result"]["journal"]["path"] == journal,
          "boot 1: status reports the journal path")
    c.proc.kill()  # SIGKILL: no destructors, no terminal record
    c.proc.wait(timeout=30)
    print("ok: boot 1 killed -9 with job %d mid-flight" % job_id)

    # Boot 2: recovery must surface the orphan as `interrupted` — loudly,
    # not as silent loss.
    c = Client(binary, extra_args=[f"--journal={journal}"])
    r = c.call("status")
    interrupted = r["result"].get("interrupted_jobs")
    check(interrupted is not None, "boot 2: status has interrupted_jobs")
    check(any(rec["job"] == job_id and rec.get("kind") == "run_atpg"
              for rec in interrupted),
          f"boot 2: job {job_id} reported interrupted: {interrupted}")
    check(r["result"]["journal"]["recovered_corrupt"] == 0,
          "boot 2: journal replayed without corruption")
    # The recovered daemon still serves normally.
    r = c.call("load_circuit", {"name": "chaos", "text": BENCH_TEXT})
    r = c.call("run_atpg", {"circuit": r["result"]["circuit"]["key"],
                            "seed": 2})
    check(r["ok"], "boot 2: recovered daemon still runs jobs")
    r = c.call("shutdown")
    check(r["ok"], "boot 2: graceful shutdown")
    check(c.proc.wait(timeout=30) == 0, "boot 2: clean exit")

    # Boot 3: recovery wrote `interrupted` closure records, so a second
    # restart reports nothing — the orphan was handled, not re-raised.
    c = Client(binary, extra_args=[f"--journal={journal}"])
    r = c.call("status")
    check(r["result"].get("interrupted_jobs") == [],
          "boot 3: interrupted report was consumed by boot 2")
    c.call("shutdown")
    check(c.proc.wait(timeout=30) == 0, "boot 3: clean exit")
    print("\nchaos-kill smoke: all checks passed")


def no_zombie(coordinator_pid, pid):
    """True once `pid` is either fully gone or reused by an unrelated
    process — i.e. NOT a zombie child of the coordinator."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return True  # reaped and recycled: no /proc entry at all
    # Fields after the parenthesised comm: state is field 3, ppid field 4.
    tail = stat.rsplit(b")", 1)[1].split()
    state, ppid = tail[0], int(tail[1])
    return not (state == b"Z" and ppid == coordinator_pid)


def cluster_smoke(binary):
    """The supervised drill: kill -9 EVERY worker once mid-job. Each job
    must still finish with totals/tests identical to an undisturbed run,
    every dead slot must be respawned as a new generation (reaped, never a
    zombie), and the pool must be back to full strength at the end."""
    # Every shard execution inside a worker stalls 200ms (the failpoint env
    # is inherited by the spawned cwatpg_serve children), so with 1-fault
    # shards both workers are reliably mid-shard when a kill lands.
    c = Client(binary,
               base_args=("--workers=2", "--shard-size=1",
                          "--respawn-backoff=0.02", "--max-respawns=10"),
               env={"CWATPG_FAILPOINTS":
                    "svc.server.execute.stall=always@200"})
    r = c.call("load_circuit", {"name": "smoke", "text": BENCH_TEXT})
    check(r["ok"], "cluster: load_circuit succeeds")
    key = r["result"]["circuit"]["key"]
    faults = r["result"]["circuit"]["faults"]
    check(faults >= 6, f"cluster: enough faults to shard ({faults})")

    def status():
        return c.call("status")["result"]

    def await_status(pred, what):
        for _ in range(250):
            st = status()
            if pred(st):
                check(True, what)
                return st
            time.sleep(0.02)
        raise SystemExit(f"FAIL (timeout): {what}\nlast status: {st}")

    st = status()
    loaded_bytes = st["registry"]["bytes"]
    check(st.get("cluster") is True, "cluster: status identifies a cluster")
    check(st["workers"] == 2 and st["workers_alive"] == 2,
          "cluster: both workers alive at boot")
    check(all(w["generation"] == 1 and w["restarts"] == 0
              for w in st["worker_pool"]),
          "cluster: every slot boots at generation 1")
    pids = [w["pid"] for w in st["worker_pool"] if w["alive"]]
    check(len(pids) == 2 and all(p > 0 for p in pids),
          f"cluster: worker pids visible in status ({pids})")

    # Reference: an undisturbed run fixes the expected classification.
    def signature(res):
        return (res["num_detected"], res["num_untestable"],
                res["num_aborted"], res["num_undetermined"], res["tests"])

    r = c.call("run_atpg", {"circuit": key, "seed": 5})
    check(r["ok"] and not r["result"]["interrupted"],
          "cluster: reference run completes")
    ref = signature(r["result"])
    shards_before = [w["shards_completed"] for w in status()["worker_pool"]]

    # Kill every slot once: submit a job, wait until the shards are spread
    # over both workers, SIGKILL the slot's CURRENT pid (generations move
    # the pid between drills), and require an identical result each time.
    for drill in range(2):
        victim = status()["worker_pool"][drill]["pid"]
        job_id = c.send("run_atpg", {"circuit": key, "seed": 5})
        time.sleep(0.35)
        os.kill(victim, signal.SIGKILL)
        print(f"ok: drill {drill}: killed worker pid {victim} mid-job")
        term = c.recv()
        check(term["id"] == job_id and term["ok"],
              f"cluster: drill {drill}: job survived the kill")
        check(signature(term["result"]) == ref,
              f"cluster: drill {drill}: totals/tests identical to reference")
        st = await_status(
            lambda st: st["workers_alive"] == 2
            and st["worker_pool"][drill]["restarts"] >= 1,
            f"cluster: drill {drill}: dead slot respawned, pool full again")
        slot = st["worker_pool"][drill]
        check(slot["generation"] == 2 and slot["last_exit"] == "signal 9",
              f"cluster: drill {drill}: generation 2 after signal 9")
        check(slot["pid"] != victim and slot["pid"] > 0,
              f"cluster: drill {drill}: respawned slot has a fresh pid")
        for _ in range(250):
            if no_zombie(c.proc.pid, victim):
                break
            time.sleep(0.02)
        check(no_zombie(c.proc.pid, victim),
              f"cluster: drill {drill}: killed pid {victim} is no zombie")

    st = status()
    check(st["worker_deaths"] == 2 and st["respawns"] == 2,
          "cluster: status counts both deaths and both respawns")
    check(st["workers_quarantined"] == 0,
          "cluster: isolated kills never quarantine a slot")
    check(all(w["shards_completed"] >= b
              for w, b in zip(st["worker_pool"], shards_before)),
          "cluster: shard totals are cumulative across generations")

    # The rebuilt pool still serves, and the classification is unchanged.
    r = c.call("run_atpg", {"circuit": key, "seed": 5})
    check(r["ok"] and signature(r["result"]) == ref,
          "cluster: respawned pool reproduces the classification")

    # An incremental job is forwarded whole: the worker that runs it builds
    # the shared miter, never the coordinator.
    r = c.call("run_atpg", {"circuit": key, "seed": 5,
                            "engine": "incremental"})
    check(r["ok"], "cluster: incremental job forwarded and answered")
    check(status()["registry"]["bytes"] == loaded_bytes,
          "cluster: coordinator registry.bytes unchanged by the job")

    r = c.call("shutdown")
    check(r["ok"] and r["result"]["drained"], "cluster: shutdown drains")
    c.proc.stdin.close()
    check(c.proc.wait(timeout=30) == 0, "cluster: coordinator exited 0")
    print("\ncluster smoke: all checks passed (supervised drill)")


def tcp_smoke(binary):
    """Two concurrent TCP clients on one daemon: colliding ids routed per
    connection, over-the-cap admission answered `overloaded`, an abrupt
    disconnect cancelling only that client's jobs, TCP shutdown drain."""
    # One worker + a stall failpoint: jobs genuinely queue, so client A's
    # disconnect lands while it still owns queued work. (Without failpoints
    # compiled in the drill still passes — it is just less adversarial.)
    # stdin/stdout are unused in listen mode; detach them so the daemon
    # cannot inherit (and hold open) whatever pipe this script runs under.
    proc = subprocess.Popen(
        [binary, "--threads=1", "--queue-capacity=8",
         "--listen=127.0.0.1:0", "--max-connections=2"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env={**os.environ,
             "CWATPG_FAILPOINTS": "svc.server.execute.stall=always@150"})
    port = wait_for_listen(proc)
    print(f"ok: daemon listening on 127.0.0.1:{port}")

    a = TcpClient(port)
    r = a.call("load_circuit", {"name": "smoke", "text": BENCH_TEXT})
    check(r["ok"], "tcp: load_circuit over the socket")
    key = r["result"]["circuit"]["key"]
    r = a.call("status")
    check(r["result"]["sessions"] == 1, "tcp: status counts one session")

    b = TcpClient(port)
    r = b.call("load_circuit", {"name": "smoke-b", "text": BENCH_TEXT})
    check(r["result"]["circuit"]["key"] == key,
          "tcp: registry shared across connections")

    # Admission: a third connection is over --max-connections=2.
    probe = TcpClient(port)
    resp = probe.recv()
    check(resp["id"] == 0 and not resp["ok"]
          and resp["error"]["code"] == "overloaded",
          "tcp: connection over the cap answered `overloaded`")
    check(probe.rout.read(1) == b"", "tcp: rejected connection then closed")
    probe.close()

    # Colliding ids across sessions: the daemon must key jobs by
    # (connection, id), so B's job 77 is untouched by A's jobs 77/78 — or
    # by A's death.
    a.send("run_atpg", {"circuit": key, "seed": 3}, req_id=77)
    a.send("run_atpg", {"circuit": key, "seed": 4}, req_id=78)
    b_job = b.send("run_atpg", {"circuit": key, "seed": 3}, req_id=77)
    a.close()
    print("ok: client A vanished with jobs 77/78 in flight")
    term = b.recv()
    check(term["id"] == b_job and term["ok"],
          "tcp: B's job survived A's disconnect untouched")

    # A's teardown races its FIN; poll until the session count drops.
    sessions = -1
    for _ in range(100):
        sessions = b.call("status")["result"]["sessions"]
        if sessions == 1:
            break
        time.sleep(0.02)
    check(sessions == 1, "tcp: A's session reaped after the disconnect")

    r = b.call("shutdown")
    check(r["ok"] and r["result"]["drained"], "tcp: shutdown drains")
    check(b.rout.read(1) == b"", "tcp: stream closed after shutdown")
    b.close()
    check(proc.wait(timeout=30) == 0, "tcp: daemon exited 0")

    hostile_header_drill(binary)
    print("\ntcp smoke: all checks passed")


def vm_rss_kib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise SystemExit(f"FAIL: no VmRSS in /proc/{pid}/status")


def hostile_header_drill(binary):
    """Connections that send nothing but a length header just under the
    64 MiB frame cap must not make the daemon hold the payloads they
    promise: 16 of them would otherwise cost about 1 GiB."""
    proc = subprocess.Popen(
        [binary, "--threads=1", "--listen=127.0.0.1:0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    port = wait_for_listen(proc)
    try:
        rss_before = vm_rss_kib(proc.pid)
        hostile = [socket.create_connection(("127.0.0.1", port), timeout=60)
                   for _ in range(16)]
        for s in hostile:
            s.sendall(b"%d\n" % (64 * 1024 * 1024 - 1))
        # The event loop serves ready connections in accept order, so once
        # a connection opened after the 16 is answered, every header was
        # read.
        fresh = TcpClient(port)
        r = fresh.call("status")
        grown_mib = (vm_rss_kib(proc.pid) - rss_before) / 1024
        check(grown_mib < 32,
              f"tcp: 16 hostile headers grew VmRSS by {grown_mib:.1f} MiB")
        check(r["ok"], "tcp: a fresh connection still answers status")
        for s in hostile:
            s.close()
        r = fresh.call("shutdown")
        check(r["ok"] and r["result"]["drained"],
              "tcp: hostile-header daemon drains")
        fresh.close()
        check(proc.wait(timeout=30) == 0,
              "tcp: hostile-header daemon exited 0")
    finally:
        if proc.poll() is None:  # a failed check: don't leave it running
            proc.kill()
            proc.wait()


def tcp_cluster_smoke(cluster_binary, serve_binary):
    """kill -9 a REMOTE (TCP-attached) worker process mid-job; the
    coordinator must fail the shards over and reproduce the reference
    classification exactly. The coordinator listens on TCP too, and serves
    a second connection while the first one's job runs."""
    env = {**os.environ,
           "CWATPG_FAILPOINTS": "svc.server.execute.stall=always@200"}
    workers, ports = [], []
    for _ in range(2):
        p = subprocess.Popen(
            [serve_binary, "--threads=1", "--listen=127.0.0.1:0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env)
        workers.append(p)
        ports.append(wait_for_listen(p))
    print(f"ok: two remote workers listening on ports {ports}")

    proc = subprocess.Popen(
        [cluster_binary, "--shard-size=1", "--listen=127.0.0.1:0",
         f"--connect=127.0.0.1:{ports[0]}",
         f"--connect=127.0.0.1:{ports[1]}"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    port = wait_for_listen(proc)
    print(f"ok: coordinator listening on 127.0.0.1:{port}")
    c = TcpClient(port)
    r = c.call("load_circuit", {"name": "smoke", "text": BENCH_TEXT})
    check(r["ok"], "tcp-cluster: load through the coordinator")
    key = r["result"]["circuit"]["key"]

    st = c.call("status")["result"]
    check(st["workers"] == 2 and st["workers_alive"] == 2,
          "tcp-cluster: both remote workers alive at boot")
    names = [w["name"] for w in st["worker_pool"]]
    check(all(n.startswith("tcp:") for n in names),
          f"tcp-cluster: endpoints are remote ({names})")

    def signature(res):
        return (res["num_detected"], res["num_untestable"],
                res["num_aborted"], res["num_undetermined"], res["tests"])

    r = c.call("run_atpg", {"circuit": key, "seed": 5})
    check(r["ok"] and not r["result"]["interrupted"],
          "tcp-cluster: reference run completes")
    ref = signature(r["result"])

    # A second connection while the first one's job runs: its `status` is
    # answered at once, and its job under the SAME request id gets its own
    # terminal.
    job_id = c.send("run_atpg", {"circuit": key, "seed": 5})
    d = TcpClient(port)
    d.sock.settimeout(3)
    try:
        r = d.call("status")
    except OSError:
        raise SystemExit("FAIL: tcp-cluster: a second connection's status "
                         "got no frame within 3 s")
    d.sock.settimeout(60)
    check(r["ok"] and r["result"]["sessions"] == 2,
          "tcp-cluster: second connection served while a job runs")
    d.send("run_atpg", {"circuit": key, "seed": 5}, req_id=job_id)
    term = c.recv()
    check(term["id"] == job_id and term["ok"]
          and signature(term["result"]) == ref,
          "tcp-cluster: first connection gets its own job's answer")
    term = d.recv()
    check(term["id"] == job_id and term["ok"]
          and signature(term["result"]) == ref,
          "tcp-cluster: same id on the second connection, its own answer")
    d.close()

    job_id = c.send("run_atpg", {"circuit": key, "seed": 5})
    time.sleep(0.35)
    workers[0].kill()  # SIGKILL the remote worker PROCESS: EOF on the socket
    print("ok: killed remote worker process mid-job")
    term = c.recv()
    check(term["id"] == job_id and term["ok"],
          "tcp-cluster: job survived the remote worker kill")
    check(signature(term["result"]) == ref,
          "tcp-cluster: post-kill classification identical to reference")
    check(term["result"]["cluster"]["redispatched"] >= 1,
          "tcp-cluster: the forfeited shard was redispatched")

    st = c.call("status")["result"]
    check(st["workers_alive"] == 1 and st["worker_deaths"] == 1,
          "tcp-cluster: status reports the remote death")

    r = c.call("run_atpg", {"circuit": key, "seed": 5})
    check(r["ok"] and signature(r["result"]) == ref,
          "tcp-cluster: survivor reproduces the classification")

    r = c.call("shutdown")
    check(r["ok"] and r["result"]["drained"], "tcp-cluster: coordinator drains")
    check(c.rout.read(1) == b"", "tcp-cluster: stream closed after shutdown")
    c.close()
    check(proc.wait(timeout=30) == 0, "tcp-cluster: coordinator exited 0")

    workers[0].wait(timeout=30)
    # The survivor keeps listening after the coordinator detaches; SIGTERM
    # takes the daemon's signal path to a clean drain.
    workers[1].send_signal(signal.SIGTERM)
    check(workers[1].wait(timeout=30) == 0,
          "tcp-cluster: surviving worker exited 0 on SIGTERM")
    print("\ntcp-cluster smoke: all checks passed")


def main():
    flags = {a for a in sys.argv[1:] if a.startswith("--")}
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    known = {"--chaos-kill", "--cluster", "--tcp", "--tcp-cluster"}
    if flags - known or len(flags) > 1:
        raise SystemExit(__doc__)
    if "--tcp-cluster" in flags:
        if len(args) != 2:
            raise SystemExit(__doc__)
        tcp_cluster_smoke(args[0], args[1])
        return
    if len(args) != 1:
        raise SystemExit(__doc__)
    if "--tcp" in flags:
        tcp_smoke(args[0])
        return
    if "--cluster" in flags:
        cluster_smoke(args[0])
        return
    if "--chaos-kill" in flags:
        chaos_kill(args[0])
        return
    c = Client(args[0])

    # -- load_circuit ------------------------------------------------------
    r = c.call("load_circuit", {"name": "smoke", "text": BENCH_TEXT})
    check(r["ok"], "load_circuit succeeds")
    circuit = r["result"]["circuit"]
    for key in ("key", "gates", "inputs", "outputs", "faults",
                "cnf_vars", "cnf_clauses"):
        check(key in circuit, f"load_circuit result has {key}")
    check(len(circuit["key"]) == 16, "content hash is 16 hex digits")
    key = circuit["key"]

    # Re-loading identical text must dedup onto the same entry.
    r2 = c.call("load_circuit", {"name": "smoke-again", "text": BENCH_TEXT})
    check(r2["result"]["circuit"]["key"] == key, "re-load dedups by content")
    check(r2["result"]["registry"]["entries"] == 1, "registry holds 1 entry")

    # -- status ------------------------------------------------------------
    r = c.call("status")
    for key2 in ("threads", "queue", "registry", "in_flight"):
        check(key2 in r["result"], f"status has {key2}")
    loaded_bytes = r["result"]["registry"]["bytes"]

    def registry_bytes():
        return c.call("status")["result"]["registry"]["bytes"]

    # -- fsim --------------------------------------------------------------
    n_inputs = circuit["inputs"]
    patterns = ["0" * n_inputs, "1" * n_inputs, "01" * (n_inputs // 2)]
    r = c.call("fsim", {"circuit": key, "patterns": patterns})
    check(r["ok"], "fsim succeeds")
    check(r["result"]["patterns"] == len(patterns), "fsim counts patterns")
    check(0.0 < r["result"]["coverage"] <= 1.0, "fsim coverage in (0,1]")

    # -- run_atpg: serial vs parallel must agree byte-for-byte -------------
    r1 = c.call("run_atpg", {"circuit": key, "seed": 7, "threads": 1})
    check(r1["ok"], "run_atpg (serial) succeeds")
    res1 = r1["result"]
    check(res1["run_report"]["schema"] == "cwatpg.run_report/1",
          "run_atpg attaches a run_report")
    check(not res1["interrupted"], "run_atpg not interrupted")
    check(res1["coverage"] > 0.9, f"coverage sane ({res1['coverage']})")
    check(res1["tests"], "run_atpg returned test patterns")
    check("queue" in res1 and "registry" in res1,
          "response carries queue/registry metrics")

    r2 = c.call("run_atpg", {"circuit": key, "seed": 7, "threads": 2})
    check(r2["result"]["tests"] == res1["tests"],
          "parallel tests byte-identical to serial")
    check(registry_bytes() == loaded_bytes,
          "registry.bytes unchanged by fsim and per-fault run_atpg")

    # -- run_atpg: the first incremental job builds the shared miter -------
    r = c.call("run_atpg", {"circuit": key, "seed": 7,
                            "engine": "incremental"})
    check(r["ok"], "run_atpg (incremental) succeeds")
    built_bytes = registry_bytes()
    check(built_bytes > loaded_bytes,
          "registry.bytes grows with the first incremental job")
    r = c.call("run_atpg", {"circuit": key, "seed": 7,
                            "engine": "incremental"})
    check(r["ok"] and registry_bytes() == built_bytes,
          "a second incremental job reuses the encoding")

    r = c.call("run_atpg", {"circuit": key, "threads": 65})
    check(not r["ok"] and r["error"]["code"] == "bad_request",
          "threads above 64 → bad_request")

    # -- cancel: unknown job ----------------------------------------------
    r = c.call("cancel", {"job": 999999})
    check(r["result"]["state"] == "unknown", "cancel of unknown job")

    # -- cancel: a just-submitted job -------------------------------------
    # The job may be queued, running, or already done when the cancel
    # lands; all are legal. Exactly one terminal response must arrive.
    job_id = c.send("run_atpg", {"circuit": key, "seed": 8,
                                 "random_blocks": 0})
    cancel_id = c.send("cancel", {"job": job_id})
    seen = {}
    while job_id not in seen or cancel_id not in seen:
        resp = c.recv()
        check(resp["id"] not in seen,
              f"first and only response for id {resp['id']}")
        check(resp["id"] in (job_id, cancel_id),
              f"response id {resp['id']} belongs to this exchange")
        seen[resp["id"]] = resp
    check(seen[cancel_id]["ok"], "cancel request answered")
    check(seen[cancel_id]["result"]["state"] in
          ("cancelled", "cancelling", "done"), "cancel state sane")
    term = seen[job_id]
    terminal_ok = term["ok"] or term["error"]["code"] == "cancelled"
    check(terminal_ok, "cancelled job got exactly one terminal response")

    # -- malformed request -------------------------------------------------
    r = c.call("run_atpg", {"circuit": "no-such-circuit"})
    check(not r["ok"] and r["error"]["code"] == "not_found",
          "unknown circuit → not_found")
    bad_id = c.send("definitely_not_a_kind")
    r = c.recv()
    check(r["id"] == bad_id and not r["ok"]
          and r["error"]["code"] == "bad_request",
          "unknown kind → bad_request")

    # -- shutdown ----------------------------------------------------------
    r = c.call("shutdown")
    check(r["ok"] and r["result"]["drained"], "shutdown drains and responds")
    check(c.proc.stdout.read(1) == b"", "stream closed after shutdown")
    c.proc.stdin.close()
    check(c.proc.wait(timeout=30) == 0, "cwatpg_serve exited 0")
    print("\nservice smoke: all checks passed")


if __name__ == "__main__":
    main()
