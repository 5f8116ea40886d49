import asyncio
import json

from perfbench.loadgen import run

OK = b'{"responses": [{"answers": []}]}'


async def _serve_dropping_first(connections):
    """A server that drops the first connection's first request and
    answers every later request with one empty answer list."""

    async def handle(reader, writer):
        connections.append(writer)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1]
                             .split(b"\r\n")[0])
                await reader.readexactly(length)
                if len(connections) == 1:
                    return
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: "
                             + str(len(OK)).encode() + b"\r\n\r\n" + OK)
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_dropped_connection_counts_as_failed_and_the_client_goes_on():
    async def scenario():
        connections = []
        server = await _serve_dropping_first(connections)
        host, port = server.sockets[0].getsockname()[:2]
        stop = asyncio.get_running_loop().create_future()
        job = {"host": host, "port": port, "path": "/search/batch",
               "bodies": [json.dumps({"requests": [{"query": "q"}]})]}
        task = asyncio.create_task(run(job, stop))
        await asyncio.sleep(0.3)
        stop.set_result("stop\n")
        result = await task
        server.close()
        await server.wait_closed()
        return connections, result

    connections, result = asyncio.run(scenario())
    statuses = [record[2] for record in result["records"]]
    assert len(connections) == 2
    assert statuses[0] == -1
    assert len(statuses) > 2 and set(statuses[1:]) == {200}
    assert result["signatures"] == ["[]"]
