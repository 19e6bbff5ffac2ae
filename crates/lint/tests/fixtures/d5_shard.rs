// D5 fixture: engine internals reached from node/scenario code.
fn meddle(sim: &mut FakeSim, g: &Globals) {
    let q: CalendarQueue<u64> = CalendarQueue::new(4096, 512);
    let key = EventKey { at: 0, src: 1, seq: 0 };
    sim.shards[0].outbox.push((1, key, q));
    sim.drain_outboxes();
    sim.shards[1].process_window(g, 10, 100);
    let link = sim.globals.port_links[0];
    if sim.zero_lookahead {}
    // rdv-lint: allow(shard-interference) -- fixture: engine-side test helper drives one window
    sim.run_window(0, 1, 2);
}
