"""Keep-alive probe: pipeline a request whose body the endpoint never
reads and a GET /healthz on one connection, and fail if a second response
comes back. A second response (typically a 405 for the method "junkGET")
means the unread body bytes were parsed as the next request head.

    python3 .github/scripts/keepalive_probe.py PORT 'METHOD PATH' ...
"""

import re
import socket
import sys

port = int(sys.argv[1])
bodies = {
    "content-length": b"content-length: 4\r\n\r\njunk",
    "chunked": b"transfer-encoding: chunked\r\n\r\n4\r\njunk\r\n0\r\n\r\n",
}
failed = False
for target in sys.argv[2:]:
    for kind, body in bodies.items():
        s = socket.create_connection(("127.0.0.1", port), timeout=15)
        s.sendall(f"{target} HTTP/1.1\r\nhost: probe\r\n".encode() + body
                  + b"GET /healthz HTTP/1.1\r\nhost: probe\r\n\r\n")
        data = b""
        try:
            while chunk := s.recv(65536):
                data += chunk
        except (ConnectionResetError, socket.timeout):
            pass
        s.close()
        statuses = [m.decode() for m in re.findall(rb"HTTP/1\.1 (\d{3}) ", data)]
        ok = len(statuses) == 1 and b"connection: close" in data
        print(f"{target} with a {kind} body -> {statuses} {'ok' if ok else 'FAIL'}")
        failed |= not ok
sys.exit(1 if failed else 0)
