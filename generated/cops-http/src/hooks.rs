//! APPLICATION HOOKS — the three application-dependent steps of the
//! request pipeline (Decode Request, Handle Request, Encode Reply).
//! Replace the stub bodies with your protocol and service logic.
use nserver_core::bytes::BytesMut;
use nserver_core::prelude::*;

/// Decode Request / Encode Reply hooks (stub: newline-delimited text).
#[derive(Default)]
pub struct AppCodec;

impl Codec for AppCodec {
    type Request = String;
    type Response = String;

    fn decode(&self, buf: &mut BytesMut) -> Result<Option<String>, ProtocolError> {
        // HOOK: parse one request off the front of `buf`.
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let line = buf.split_to(i + 1);
                Ok(Some(String::from_utf8_lossy(&line[..i]).into_owned()))
            }
            None => Ok(None),
        }
    }

    fn encode(&self, resp: &String, out: &mut BytesMut) -> Result<(), ProtocolError> {
        // HOOK: serialize one response.
        out.extend_from_slice(resp.as_bytes());
        out.extend_from_slice(b"\n");
        Ok(())
    }
}

/// Handle Request hook (stub: echo).
#[derive(Default)]
pub struct AppService;

impl AppService {
    /// Construct the service.
    pub fn new() -> Self {
        Self
    }
}

impl Service<AppCodec> for AppService {
    fn handle(&self, _ctx: &ConnCtx, req: String) -> Action<String> {
        // HOOK: your service logic.
        Action::Reply(req)
    }
}
