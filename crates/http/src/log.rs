//! Access logging for COPS-HTTP (template option O12): NCSA Common Log
//! Format lines, fed to whatever sink the framework's logging hook was
//! given.

use crate::types::{Request, Response};

/// Render one Common Log Format line:
/// `host ident authuser [timestamp] "request line" status bytes`.
///
/// The timestamp is supplied by the caller (seconds since the epoch) so
/// the formatter stays pure and testable.
pub fn clf_line(peer: &str, epoch_secs: u64, req: &Request, resp: &Response) -> String {
    let host = peer.split(':').next().unwrap_or(peer);
    format!(
        "{host} - - [{epoch_secs}] \"{} {} {}\" {} {}",
        req.method,
        req.target(),
        req.version,
        resp.status.code(),
        if resp.head_only { 0 } else { resp.body.len() }
    )
}

/// Convenience: a CLF line stamped with the current system time.
pub fn clf_line_now(peer: &str, req: &Request, resp: &Response) -> String {
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    clf_line(peer, epoch, req, resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Method, Status, Version};
    use std::sync::Arc;

    fn req() -> Request {
        Request::new(Method::Get, "/index.html", Version::Http11)
    }

    #[test]
    fn clf_line_has_all_fields() {
        let resp = Response::ok(Arc::new(vec![0u8; 1234]), "text/html", Version::Http11);
        let line = clf_line("10.0.0.7:51234", 1000000, &req(), &resp);
        assert_eq!(
            line,
            "10.0.0.7 - - [1000000] \"GET /index.html HTTP/1.1\" 200 1234"
        );
    }

    #[test]
    fn head_responses_log_zero_bytes() {
        let resp = Response::ok(Arc::new(vec![0u8; 1234]), "text/html", Version::Http11).head();
        let line = clf_line("h:1", 5, &req(), &resp);
        assert!(line.ends_with("200 0"), "{line}");
    }

    #[test]
    fn error_status_is_logged() {
        let resp = Response::error(Status::NotFound, Version::Http10);
        let line = clf_line("h:1", 5, &req(), &resp);
        assert!(line.contains("\" 404 "), "{line}");
    }

    #[test]
    fn peer_without_port_is_kept() {
        let resp = Response::error(Status::Ok, Version::Http11);
        let line = clf_line("somewhere", 5, &req(), &resp);
        assert!(line.starts_with("somewhere - - "));
    }

    #[test]
    fn now_variant_stamps_a_recent_time() {
        let resp = Response::error(Status::Ok, Version::Http11);
        let line = clf_line_now("h:1", &req(), &resp);
        let stamp: u64 = line
            .split('[')
            .nth(1)
            .unwrap()
            .split(']')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(stamp > 1_600_000_000, "stamp {stamp}");
    }
}
