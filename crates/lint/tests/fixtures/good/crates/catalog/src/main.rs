//! The fixture's production caller: it names every library `pub fn`,
//! so the surface rule stays quiet.

fn main() {
    let counter = std::sync::atomic::AtomicU64::new(0);
    let _ = swim_catalog::tidy(&[swim_catalog::relaxed(&counter)]);
    let _ = swim_catalog::publish_no_clobber("a.tmp", "a");
}
