//! Fixture: D3 discipline over the sharded-engine counter and gauge names.
fn naughty(c: &mut Counters, m: &mut MetricSample<'_>) {
    c.inc("sim.shard.bogus");
    m.gauge("shard.bogus_gauge", 1);
    c.inc("sim.shard.windows");
    c.add("sim.shard.xshard_packets", 2);
    c.add("sim.shard.worker_spawns", 3);
}
