# reprolint: module=repro.cloud.fixture
"""Bad: poking the TrafficMeter from outside the Channel wire path."""


def sneak_bytes(session, recorder, nbytes):
    session.meter.record("up", nbytes, 0)  # expect: REP011
    session.meter.records.append(None)  # expect: REP011
    session.meter.up.payload += nbytes  # expect: REP011
    session.meter.down.wasted = 0  # expect: REP011
    session.meter.up = session.meter.down  # expect: REP011
    # The span emit keeps this fixture REP020-clean; the mutations above
    # are still on the wrong side of the Channel boundary.
    recorder.record_span("exchange", up=nbytes, down=0)
