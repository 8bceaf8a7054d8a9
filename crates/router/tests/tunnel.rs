//! Streaming sessions through the router: a `stream_open` pins its slot
//! and the connection tunnels to the shard for the session's lifetime.
//! Along the way, the retired `stats`/`store` verbs are checked to be
//! unknown on both legs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gbd_router::{Router, RouterConfig};
use gbd_serve::{Json, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn {
            writer: stream,
            reader,
        }
    }

    fn round_trip(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("newline");
        self.recv()
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        assert!(!line.is_empty(), "connection closed unexpectedly");
        Json::parse(line.trim()).expect("JSON response")
    }
}

fn error_code(response: &Json) -> Option<&str> {
    response.get("error")?.get("code")?.as_str()
}

/// Sends the retired `stats` and `store` verbs and checks that each gets
/// the unknown-verb `bad_request` answer.
fn assert_retired_verbs_unknown(conn: &mut Conn) {
    for verb in ["stats", "store"] {
        let reply = conn.round_trip(&format!(r#"{{"id":5,"verb":"{verb}"}}"#));
        assert_eq!(error_code(&reply), Some("bad_request"), "{verb}");
        let message = reply
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("error message");
        assert!(message.starts_with("unknown verb"), "{message}");
    }
}

#[test]
fn stream_session_tunnels_through_the_router() {
    let shard = Server::bind(ServeConfig::default(), Arc::new(gbd_engine::Engine::new()))
        .expect("bind shard");
    let shard_addr = shard.local_addr().to_string();
    let shard_handle = shard.handle();
    let shard_thread = std::thread::spawn(move || shard.run());

    let router = Router::bind(RouterConfig {
        shards: vec![shard_addr],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let router_addr = router.local_addr().to_string();
    let router_handle = router.handle();
    let router_thread = std::thread::spawn(move || router.run());

    let mut conn = Conn::connect(&router_addr);

    // report/stream_close with no session are answered by the router.
    let err = conn.round_trip(r#"{"id":1,"verb":"stream_close"}"#);
    assert_eq!(error_code(&err), Some("bad_request"));
    // So are the retired verbs, and the connection keeps serving.
    assert_retired_verbs_unknown(&mut conn);

    // Open a session: everything after this tunnels to the shard.
    let ack = conn.round_trip(
        r#"{"id":2,"verb":"stream_open","params":{"k":3,"m":10},"boundary":"torus"}"#,
    );
    assert_eq!(ack.get("streaming").and_then(Json::as_bool), Some(true));
    // Inside the tunnel the shard answers them, and the session goes on.
    assert_retired_verbs_unknown(&mut conn);

    // A stationary intruder sighted by the same sensor for k = 3
    // consecutive periods is one velocity-feasible chain: the third
    // report must push a detection event back down the tunnel.
    for period in 1u64..=3 {
        let line = format!(
            r#"{{"id":{},"verb":"report","reports":[{{"sensor":1,"period":{period},"x":500.0,"y":500.0}}]}}"#,
            10 + period,
        );
        let ack = conn.round_trip(&line);
        assert_eq!(ack.get("ingested").and_then(Json::as_u64), Some(1));
        let events = ack.get("events").and_then(Json::as_u64).expect("events");
        if period < 3 {
            assert_eq!(events, 0, "period {period}");
        } else {
            assert_eq!(events, 1, "period {period}");
            let event = conn.recv();
            let body = event.get("event").expect("event body");
            assert_eq!(body.get("period").and_then(Json::as_u64), Some(3));
            assert_eq!(body.get("chain_len").and_then(Json::as_u64), Some(3));
        }
    }

    let end = conn.round_trip(r#"{"id":20,"verb":"stream_close"}"#);
    assert_eq!(end.get("stream_end").and_then(Json::as_bool), Some(true));
    assert_eq!(end.get("reports").and_then(Json::as_u64), Some(3));
    assert_eq!(end.get("events").and_then(Json::as_u64), Some(1));

    router_handle.shutdown();
    router_thread
        .join()
        .expect("router thread")
        .expect("router run");
    shard_handle.shutdown();
    shard_thread
        .join()
        .expect("shard thread")
        .expect("shard run");
}
