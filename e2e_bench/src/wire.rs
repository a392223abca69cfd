//! The closed loop split across `llc-net` over loopback TCP, in lockstep:
//! an agent thread owns the plant through `AgentCore`, the controller
//! thread owns the control plane through `ControldCore`. The window
//! protocol is the lockstep one of `llc_net::session`, driven here call
//! by call so each codec, link and core call gets its own span.

use crate::check::Ledger;
use crate::episode::{Episode, SetupTimes, TickTimes, WireStats};
use crate::spans::{Span, Spans};
use crate::workload::{build_policy, Inputs, Workload};
use llc_cluster::{Cadence, ClusterPolicy, Directive, MetricsSnapshot};
use llc_net::{
    decode_directive, decode_heartbeat, decode_hello, decode_metrics, encode_directive,
    encode_heartbeat, encode_hello, encode_metrics, encode_observation, AgentCore, ControldCore,
    CtrlEvent, Frame, FrameKind, FrameTransport, LinkCounters, Role, TcpLink,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long either side waits on the other before declaring the run
/// broken (lockstep blocks indefinitely; a benchmark must end).
const SILENCE: Duration = Duration::from_secs(60);

fn recv<T: FrameTransport>(link: &mut T) -> Result<Frame, String> {
    link.recv(Some(SILENCE))
        .map_err(|e| format!("link: {e}"))?
        .ok_or_else(|| "peer went silent mid-lockstep".to_string())
}

fn send<T: FrameTransport>(link: &mut T, kind: FrameKind, payload: Vec<u8>) -> Result<(), String> {
    link.send(kind, payload).map_err(|e| format!("link: {e}"))
}

fn expect_hello<T: FrameTransport>(link: &mut T) -> Result<llc_net::Hello, String> {
    let frame = recv(link)?;
    if frame.kind != FrameKind::Hello {
        return Err(format!("expected Hello, got {:?}", frame.kind));
    }
    decode_hello(&frame.payload).map_err(|e| format!("wire: {e}"))
}

fn since(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64()
}

/// What the agent thread hands back.
struct AgentRun {
    plant_build_s: f64,
    handshake_s: f64,
    loop_start: Instant,
    loop_s: f64,
    tick_times: TickTimes,
    ledger: Ledger,
    directives: Vec<Directive>,
    spans: Vec<Span>,
    counters: LinkCounters,
    applied_per_tick: Vec<u64>,
    metrics_frame_ok: bool,
}

/// What the controller side hands back.
struct ControllerRun {
    emitted_per_tick: Vec<u64>,
    spans: Vec<Span>,
    metrics: MetricsSnapshot,
}

/// Run the wire workload for `seed`: set up both halves, connect, and
/// drive up to `limit` base ticks in lockstep, recording spans on both
/// threads when `traced`.
///
/// # Errors
///
/// A description of the first transport, protocol or plant failure.
pub fn run(seed: u64, limit: Option<u64>, traced: bool) -> Result<Episode, String> {
    let start = Instant::now();
    let inputs = Inputs::new(Workload::Paper16Wire, seed, None);
    let trace_done = Instant::now();
    let policy = build_policy(Workload::Paper16Wire, &inputs.scenario);
    let policy_done = Instant::now();

    let total = inputs.total_ticks();
    let ticks = limit.map_or(total, |l| l.min(total));
    let cadence = policy.cadence();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;

    let (agent, controller) = std::thread::scope(|scope| {
        let inputs = &inputs;
        let agent = scope.spawn(move || agent_side(inputs, addr, ticks, cadence, traced, start));
        let mut core = ControldCore::new(policy, inputs.members(), inputs.experiment.t_l0, total);
        let controller = controller_side(&mut core, &listener, ticks, traced, start);
        let agent = agent
            .join()
            .unwrap_or_else(|_| Err("agent thread panicked".to_string()));
        (agent, controller)
    });
    let agent = agent?;
    let controller = controller?;

    let mismatched_ticks = agent
        .applied_per_tick
        .iter()
        .zip(&controller.emitted_per_tick)
        .filter(|(a, c)| a != c)
        .count() as u64
        + agent
            .applied_per_tick
            .len()
            .abs_diff(controller.emitted_per_tick.len()) as u64;
    let mut spans = agent.spans;
    spans.extend(controller.spans);
    Ok(Episode {
        ticks,
        t_l0: inputs.experiment.t_l0,
        setup: SetupTimes {
            trace_s: since(start, trace_done),
            policy_build_s: since(trace_done, policy_done),
            plant_build_s: agent.plant_build_s,
            handshake_s: agent.handshake_s,
            total_s: since(start, agent.loop_start),
        },
        loop_s: agent.loop_s,
        tick_times: agent.tick_times,
        ledger: agent.ledger,
        directives: agent.directives,
        metrics: controller.metrics,
        spans,
        wire: Some(WireStats {
            agent_loop: agent.counters,
            applied: agent.applied_per_tick.iter().sum(),
            mismatched_ticks,
            metrics_frame_ok: agent.metrics_frame_ok,
        }),
    })
}

fn counters_delta(after: LinkCounters, before: LinkCounters) -> LinkCounters {
    LinkCounters {
        frames_in: after.frames_in - before.frames_in,
        frames_out: after.frames_out - before.frames_out,
        bytes_in: after.bytes_in - before.bytes_in,
        bytes_out: after.bytes_out - before.bytes_out,
        decode_errors: after.decode_errors - before.decode_errors,
    }
}

fn agent_side(
    inputs: &Inputs,
    addr: SocketAddr,
    ticks: u64,
    cadence: Cadence,
    traced: bool,
    epoch: Instant,
) -> Result<AgentRun, String> {
    let build_start = Instant::now();
    let mut core = AgentCore::new(
        inputs.scenario.to_sim_config(),
        &inputs.experiment,
        &inputs.trace,
        &inputs.store,
    )
    .map_err(|e| format!("plant: {e}"))?;
    let connect_start = Instant::now();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut link = TcpLink::new(stream).map_err(|e| format!("link: {e}"))?;
    send(&mut link, FrameKind::Hello, encode_hello(&core.hello()))?;
    let hello = expect_hello(&mut link)?;
    if hello.role != Role::Controller
        || hello.t_l0.to_bits() != core.hello().t_l0.to_bits()
        || hello.total_ticks != core.total_ticks()
    {
        return Err(format!("controller handshake mismatch: {hello:?}"));
    }

    let mut ledger = Ledger::new(inputs.experiment.response_target);
    let mut tick_times = TickTimes::default();
    let mut applied_per_tick = Vec::with_capacity(ticks as usize);
    let loop_start = Instant::now();
    let before = link.counters();
    let mut spans = Spans::new("agent", epoch, traced);
    while core.tick() < ticks {
        let tick = core.tick();
        tick_times.start();
        let tick_start = spans.mark();
        let observations = spans.span("observe", tick, || core.observations());
        let handed_over = Instant::now();
        for observation in &observations {
            let payload = spans.span("encode", tick, || encode_observation(observation));
            spans.span("send", tick, || {
                send(&mut link, FrameKind::Observation, payload)
            })?;
        }
        let heartbeat = spans.span("encode", tick, || encode_heartbeat(&core.heartbeat()));
        spans.span("send", tick, || {
            send(&mut link, FrameKind::Heartbeat, heartbeat)
        })?;

        // Stage directives until the controller's commit marker for this
        // tick arrives.
        loop {
            let frame = spans.span("recv", tick, || recv(&mut link))?;
            match frame.kind {
                FrameKind::Directive => {
                    let directive = spans
                        .span("decode", tick, || decode_directive(&frame.payload))
                        .map_err(|e| format!("wire: {e}"))?;
                    spans.span("stage", tick, || core.stage(directive));
                }
                FrameKind::Heartbeat => {
                    let hb = spans
                        .span("decode", tick, || decode_heartbeat(&frame.payload))
                        .map_err(|e| format!("wire: {e}"))?;
                    if hb.role == Role::Controller && hb.tick >= tick {
                        break;
                    }
                }
                other => return Err(format!("unexpected {other:?} frame mid-window")),
            }
        }
        let committed = Instant::now();
        tick_times.turnaround(
            &cadence,
            tick,
            (committed - handed_over).as_secs_f64() * 1e6,
        );

        let applied_before = core.applied_directives().len();
        spans
            .span("commit", tick, || core.commit_window())
            .map_err(|e| format!("plant: {e}"))?;
        let count = inputs.arrivals(tick);
        spans.span("record", tick, || {
            let applied = &core.applied_directives()[applied_before..];
            applied_per_tick.push(applied.len() as u64);
            ledger.directives(applied);
            let adapter = core.adapter();
            ledger.tick(tick, count as u64, adapter.sim(), adapter.window_stats());
        });
        spans.tick(tick, tick_start);
    }
    let loop_end = Instant::now();
    tick_times.finish(loop_end);
    let loop_s = (loop_end - loop_start).as_secs_f64();
    let counters = counters_delta(link.counters(), before);

    // The controller's closing metrics frame.
    let frame = recv(&mut link)?;
    let metrics_frame_ok =
        frame.kind == FrameKind::Metrics && decode_metrics(&frame.payload).is_ok();

    Ok(AgentRun {
        plant_build_s: since(build_start, connect_start),
        handshake_s: since(connect_start, loop_start),
        loop_start,
        loop_s,
        tick_times,
        ledger,
        directives: core.applied_directives().to_vec(),
        spans: spans.into_spans(),
        counters,
        applied_per_tick,
        metrics_frame_ok,
    })
}

/// Accept the agent, giving up after [`SILENCE`] so a failed agent
/// cannot hang the run.
fn accept(listener: &TcpListener) -> Result<TcpStream, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listen: {e}"))?;
    let deadline = Instant::now() + SILENCE;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| format!("accept: {e}"))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err("agent never connected".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
}

fn controller_side<P: ClusterPolicy>(
    core: &mut ControldCore<P>,
    listener: &TcpListener,
    ticks: u64,
    traced: bool,
    epoch: Instant,
) -> Result<ControllerRun, String> {
    let mut link = TcpLink::new(accept(listener)?).map_err(|e| format!("link: {e}"))?;
    send(&mut link, FrameKind::Hello, encode_hello(&core.hello()))?;
    let hello = expect_hello(&mut link)?;
    core.check_agent_hello(&hello)?;

    let mut emitted_per_tick = Vec::with_capacity(ticks as usize);
    let mut spans = Spans::new("controld", epoch, traced);
    while core.next_tick() < ticks {
        let tick = core.next_tick();
        let tick_start = spans.mark();
        // Gather until the agent's heartbeat closes the window; TCP
        // ordering puts the observations it covers ahead of it.
        loop {
            let frame = spans.span("recv", tick, || recv(&mut link))?;
            let event = spans
                .span("handle_frame", tick, || core.handle_frame(&frame))
                .map_err(|e| format!("wire: {e}"))?;
            if let CtrlEvent::AgentHeartbeat(hb) = event {
                if hb.tick >= tick {
                    break;
                }
            }
        }
        let (_report, directives) = spans.span("decide", tick, || core.decide_next());
        emitted_per_tick.push(directives.len() as u64);
        for directive in &directives {
            let payload = spans.span("encode", tick, || encode_directive(directive));
            spans.span("send", tick, || {
                send(&mut link, FrameKind::Directive, payload)
            })?;
        }
        let commit = spans.span("encode", tick, || {
            encode_heartbeat(&core.commit_heartbeat(tick))
        });
        spans.span("send", tick, || {
            send(&mut link, FrameKind::Heartbeat, commit)
        })?;
        spans.tick(tick, tick_start);
    }
    let metrics = core.metrics(&link.counters());
    send(&mut link, FrameKind::Metrics, encode_metrics(&metrics))?;
    Ok(ControllerRun {
        emitted_per_tick,
        spans: spans.into_spans(),
        metrics,
    })
}
