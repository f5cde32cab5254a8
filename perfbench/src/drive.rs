//! One simulation session over an event source, plain or traced.

use crate::tracer::Tracer;
use stbpu_engine::ModelCore;
use stbpu_sim::OwnedSession;
use stbpu_trace::{EventSource, TraceEvent};

/// Events pulled per batch: the session's own pull size, so a traced
/// session feeds the model exactly the batches `run` would.
const RUN_BATCH: usize = 4_096;

/// Pumps `source` into `session`. Untraced, this is `OwnedSession::run`;
/// traced, the same loop with a span around every `next_batch` (tagged
/// with the source kind) and every `feed_batch` (tagged with the scheme).
pub fn pump(
    session: &mut OwnedSession<ModelCore>,
    source: &mut dyn EventSource,
    source_tag: &'static str,
    scheme: &'static str,
    t: &mut Tracer,
) -> Result<(), String> {
    if !t.enabled() {
        return session.run(source).map_err(|e| e.to_string());
    }
    session
        .begin(source.name(), source.branch_hint())
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::with_capacity(RUN_BATCH);
    loop {
        let span = t.open("trace.next_batch", source_tag);
        let n = source.next_batch(&mut buf, RUN_BATCH);
        let stopped = t.stop(span);
        let branches = buf
            .iter()
            .filter(|e| matches!(e, TraceEvent::Branch { .. }))
            .count() as u64;
        t.work(stopped, branches, 0);
        if n.map_err(|e| e.to_string())? == 0 {
            return Ok(());
        }
        let span = t.open("sim.feed_batch", scheme);
        let fed = session.feed_batch(&buf);
        t.close(span, branches, 0);
        fed.map_err(|e| e.to_string())?;
    }
}
