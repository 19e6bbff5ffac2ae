//! Fixture: D3 over the runtime, discovery, controller and transport
//! names, checked against the real name table.
fn naughty(c: &mut Counters, ctx: &mut Ctx) {
    let s = ctx.trace.span_begin("core.fetchh", 1);
    ctx.trace.mark("discovery.brodcast", 2);
    ctx.trace.span_end("controller.instal", s);
    ctx.trace.mark_linked("transport.retransmitt", 3, s);
    c.inc("fetch.demnd");
    c.add("retries.fecth", 1);
    let ok = ctx.trace.span_begin("core.fetch", 1);
    ctx.trace.sample("discovery.access", 2);
    ctx.trace.span_end("controller.install", ok);
    ctx.trace.mark_linked("transport.retransmit", 3, ok);
    c.inc("fetch.demand");
    c.add("retries.fetch", 1);
    c.inc("control.install_failed");
    c.inc("control");
    ctx.trace.mark("proto.step", 4);
}
