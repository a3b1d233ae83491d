//! RAII wall-clock spans for phase-level accounting.

use crate::registry::Timing;
use crate::scope::ScopeRecorder;
use crate::MetricsRegistry;
use std::sync::Arc;
use std::time::Instant;

/// One phase, from [`Span::begin`] to drop: timed into the registry it was
/// given, traced as a span of the scope recorder it was given, or both.
/// Given neither, it records nothing.
///
/// ```
/// let reg = db_telemetry::MetricsRegistry::new();
/// {
///     let _span = db_telemetry::Span::begin("phase.simulate", Some(&reg), None);
///     // ... work ...
/// }
/// assert_eq!(reg.snapshot().timings[0].1.count, 1);
/// ```
#[derive(Debug)]
pub struct Span {
    timing: Option<(Timing, Instant)>,
    scope: Option<(Arc<ScopeRecorder>, u32)>,
}

impl Span {
    /// Open the phase `name` in each sink given.
    pub fn begin(
        name: &str,
        reg: Option<&MetricsRegistry>,
        scope: Option<&Arc<ScopeRecorder>>,
    ) -> Span {
        Span {
            scope: scope.map(|sc| (sc.clone(), sc.begin_span(name))),
            timing: reg.map(|r| (r.timing(name), Instant::now())),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((timing, start)) = &self.timing {
            timing.record_ns(start.elapsed().as_nanos() as u64);
        }
        if let Some((sc, id)) = &self.scope {
            sc.end_span(*id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceData;

    #[test]
    fn span_records_on_drop() {
        let reg = MetricsRegistry::new();
        {
            let _s = Span::begin("phase.t", Some(&reg), None);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let t = reg.timing("phase.t");
        assert_eq!(t.count(), 1);
        assert!(t.total_ns() >= 1_000_000, "slept ≥2ms but recorded <1ms");
        assert_eq!(t.max_ns(), t.total_ns());
    }

    #[test]
    fn nested_and_repeated_spans_accumulate() {
        let reg = MetricsRegistry::new();
        for _ in 0..3 {
            let _outer = Span::begin("phase.outer", Some(&reg), None);
            let _inner = Span::begin("phase.inner", Some(&reg), None);
        }
        assert_eq!(reg.timing("phase.outer").count(), 3);
        assert_eq!(reg.timing("phase.inner").count(), 3);
    }

    /// Each sink sees exactly the spans it was given: the registry times
    /// only the registry spans, the trace holds only the scope spans.
    #[test]
    fn each_span_feeds_exactly_the_sinks_it_was_given() {
        let reg = MetricsRegistry::new();
        let sc = Arc::new(ScopeRecorder::default());
        {
            let _both = Span::begin("phase.both", Some(&reg), Some(&sc));
            let _reg = Span::begin("phase.reg", Some(&reg), None);
            let _scope = Span::begin("phase.scope", None, Some(&sc));
            let _none = Span::begin("phase.none", None, None);
        }
        let timed: Vec<String> = reg.snapshot().timings.into_iter().map(|t| t.0).collect();
        assert_eq!(timed, ["phase.both", "phase.reg"]);
        let t = TraceData::from_json_str(&sc.to_trace_json()).unwrap();
        let traced: Vec<(&str, Option<u32>)> = t
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(traced, [("phase.both", None), ("phase.scope", Some(0))]);
    }
}
