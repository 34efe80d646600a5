"""SIGKILL a fleet worker while clients are provably mid-load.

A fixed number of client requests raced against a fixed sleep before the
kill only tests the router's retry path if the requests happen to be
slow enough to still be running; a fast fleet finishes them first.  Here
the clients loop until told to stop, the kill waits for their first
replies, and the stop waits for the respawn, so requests are sent before,
during and after the outage however fast the fleet answers.
"""

import threading
import time


def kill_under_load(fleet, victim, send, clients=3, on_kill=None, timeout=60.0):
    """SIGKILL ``victim`` while ``clients`` threads loop ``send(client, n)``.

    ``send`` makes the ``n``-th request of client ``client`` and records
    its own failures; it must not raise.  The kill fires once every
    client has had a reply; ``on_kill`` then runs while the worker is
    down.  The clients stop once the supervisor has respawned the worker
    (``fleet.respawns >= 1`` and ``victim.ready`` set) and every client
    has finished a request started after that.  Returns the number of
    requests each client started after the kill.
    """
    killed = threading.Event()
    respawned = threading.Event()
    stop = threading.Event()
    lock = threading.Lock()
    first_reply = threading.Semaphore(0)
    after_kill = [0] * clients
    after_respawn = [0] * clients

    def loop(client):
        n = 0
        while not stop.is_set():
            started_after_kill = killed.is_set()
            started_after_respawn = respawned.is_set()
            send(client, n)
            with lock:
                after_kill[client] += started_after_kill
                after_respawn[client] += started_after_respawn
            if n == 0:
                first_reply.release()
            n += 1

    threads = [
        threading.Thread(target=loop, args=(client,), daemon=True)
        for client in range(clients)
    ]
    for thread in threads:
        thread.start()
    try:
        for _ in range(clients):
            assert first_reply.acquire(timeout=timeout), "no reply before the kill"
        victim.proc.kill()  # SIGKILL: no cleanup, no goodbye
        killed.set()
        if on_kill is not None:
            on_kill()
        deadline = time.monotonic() + timeout
        while not (fleet.respawns >= 1 and victim.ready.is_set()):
            assert time.monotonic() < deadline, "worker was not respawned"
            time.sleep(0.05)
        respawned.set()
        while True:
            with lock:
                if min(after_respawn) >= 1:
                    break
            assert time.monotonic() < deadline, "clients stalled after respawn"
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=timeout)
            assert not thread.is_alive(), "client hung through the kill"
    return list(after_kill)
