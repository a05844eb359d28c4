# reprolint: module=repro.cloud.fixture
"""Good: bytes go through the audited Channel path."""


def send_bytes(channel, nbytes):
    return channel.exchange(up_payload=nbytes, down_payload=0)


def uploaded_share(session):
    """Reading the per-direction totals is what they are for."""
    up = session.meter.up
    return up.total, session.meter.down.payload
