"""The load process: one closed-loop HTTP client over a keep-alive socket.

Runs as its own interpreter (``python3 perfbench/loadgen.py``) so the
server process keeps its event loop and interpreter lock to itself.
Standard library only: the client is the benchmark's, not the
program's, so a change to ``repro.serve.client`` cannot move it.

Protocol over the pipes:

- stdin, line 1: the job, one JSON object ``{"host", "port", "path",
  "bodies": [str, ...]}``.  The client sends the bodies in order, the
  next one when the last one is answered, and starts over at the first
  body when it runs out.
- stdout: ``ready`` once the connection is open.
- stdin, line 2: ``stop``.  The client finishes the request it has in
  flight and stops.
- stdout, last line: the result, one JSON object ``{"records":
  [[t_send, t_done, status, body_index, [signature id per query]],
  ...], "signatures": [str, ...]}``.  Times are ``time.monotonic()``
  seconds, which on Linux is the same clock in every process;
  ``status`` is the HTTP status or -1 for a transport error, after
  which the client reconnects.  A
  signature is the JSON list of ``[instance_id, score]`` of one query's
  answers, interned so repeated answers cost one string.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time


def answer_signature(answers) -> str:
    """One query's wire answers as ``[[instance_id, score], ...]`` JSON:
    the ids and exact scores the correctness check compares."""
    pairs = []
    for answer in answers:
        instance_id = next((value for key, value in answer["provenance"]
                            if key == "instance_id"), None)
        pairs.append([instance_id, answer["score"]])
    return json.dumps(pairs)


async def read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """One HTTP response off the stream: ``(status, body)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, _, header_block = head.partition(b"\r\n")
    status = int(status_line.split(None, 2)[1])
    length = 0
    for line in header_block.split(b"\r\n"):
        name, sep, value = line.partition(b":")
        if sep and name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def run(job: dict, stop_line) -> dict:
    """Send ``job``'s requests until ``stop_line`` resolves."""
    def connect():
        return asyncio.open_connection(job["host"], job["port"])

    reader, writer = await connect()
    heads = []
    for body in job["bodies"]:
        encoded = body.encode("utf-8")
        heads.append((f"POST {job['path']} HTTP/1.1\r\n"
                      f"Host: {job['host']}:{job['port']}\r\n"
                      f"Content-Type: application/json\r\n"
                      f"Content-Length: {len(encoded)}\r\n"
                      f"Connection: keep-alive\r\n\r\n").encode("latin-1")
                     + encoded)
    records: list = []
    signatures: dict[str, int] = {}
    print("ready", flush=True)
    position = 0
    try:
        while not stop_line.done():
            body_index = position % len(heads)
            position += 1
            started = time.monotonic()
            try:
                writer.write(heads[body_index])
                await writer.drain()
                status, payload = await read_response(reader)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                records.append([started, time.monotonic(), -1, body_index,
                                []])
                # The request counts as failed; the client goes on over a
                # new connection, and stops when it cannot open one.
                writer.close()
                try:
                    reader, writer = await connect()
                except OSError:
                    break
                continue
            done = time.monotonic()
            ids = []
            if status == 200:
                for response in json.loads(payload)["responses"]:
                    signature = answer_signature(response["answers"])
                    ids.append(signatures.setdefault(signature,
                                                     len(signatures)))
            records.append([started, done, status, body_index, ids])
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    await stop_line
    return {"records": records,
            "signatures": sorted(signatures, key=signatures.get)}


async def _amain() -> None:
    loop = asyncio.get_running_loop()
    job = json.loads(await loop.run_in_executor(None, sys.stdin.readline))
    stop_line = loop.run_in_executor(None, sys.stdin.readline)
    result = await run(job, stop_line)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    asyncio.run(_amain())
