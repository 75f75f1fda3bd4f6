#!/usr/bin/env python3
"""Scrape a `udp_live --admin-port 0` run at the port its log announces.

Usage: run_admin_log_scrape.py UDP_LIVE WORK_DIR

Starts udp_live on an ephemeral admin port with stdout redirected to a file
in WORK_DIR. While the process runs, waits up to 2 s for the
"http://127.0.0.1:N" line to appear in that file, fetches /metrics from
port N and checks that it holds cadet_net_packets_total. Exits non-zero,
naming the failed step, otherwise.
"""
import pathlib
import re
import socket
import subprocess
import sys
import time

PORT_WAIT_S = 2.0


def fetch(port, path):
    """Body of an HTTP/1.0 GET against 127.0.0.1:port."""
    with socket.create_connection(("127.0.0.1", port), timeout=2.0) as conn:
        conn.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks).decode(errors="replace")
    head, _, body = response.partition("\r\n\r\n")
    if not head.startswith("HTTP/1.0 200"):
        sys.exit(f"GET {path}: {head.splitlines()[0] if head else 'no reply'}")
    return body


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, work = sys.argv[1], pathlib.Path(sys.argv[2])
    work.mkdir(parents=True, exist_ok=True)
    log = work / "udp_live_admin.log"
    with open(log, "w") as out:
        proc = subprocess.Popen(
            [binary, "--admin-port", "0", "--serve-ms", "3000"],
            stdout=out, stderr=subprocess.STDOUT)
    try:
        port = None
        deadline = time.monotonic() + PORT_WAIT_S
        while proc.poll() is None and time.monotonic() < deadline:
            match = re.search(r"http://127\.0\.0\.1:(\d+)", log.read_text())
            if match:
                port = int(match.group(1))
                break
            time.sleep(0.05)
        if port is None:
            sys.exit(f"no admin URL in {log} within {PORT_WAIT_S} s of a "
                     "running udp_live (stdout not flushed?)")
        if "cadet_net_packets_total" not in fetch(port, "/metrics"):
            sys.exit(f"/metrics on port {port} lacks cadet_net_packets_total")
        if proc.wait(timeout=30) != 0:
            sys.exit(f"udp_live exited {proc.returncode}; log:\n"
                     + log.read_text())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print(f"scraped udp_live on ephemeral port {port} from its log")


if __name__ == "__main__":
    main()
