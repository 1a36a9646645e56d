//! Files whose metadata lies but carries a valid checksum.
//!
//! A flipped bit in the header or footer fails the metadata checksum
//! before anything else looks at it, so the checks `Store::open` makes
//! of the index are reached only by a file re-sealed over its forged
//! metadata ([`format::encode_tail`]). Each case below forges one lie
//! into `v5-multichunk.swim` (40 jobs, 16 to a chunk, 3 chunks), re-seals
//! it, and names the check that must refuse it. A header of any version
//! but this build's is refused as such, whatever else the file holds.

use std::path::PathBuf;
use swim_store::format::{self, Footer, Header};
use swim_store::{Store, StoreError, MAX_JOBS_PER_CHUNK};

fn fixture() -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v5-multichunk.swim");
    std::fs::read(path).expect("fixture reads")
}

/// A store image cut into what the trailer's checksum covers.
struct Parts {
    header: Vec<u8>,
    chunks: Vec<u8>,
    footer: Vec<u8>,
    footer_offset: u64,
}

impl Parts {
    fn of(image: &[u8]) -> Parts {
        let header_len = Header::decode(image).expect("intact").encode().len();
        let tail = image.len() - format::CHECKSUM_LEN - format::TRAILER_LEN;
        let footer_offset = format::decode_trailer(&image[tail + format::CHECKSUM_LEN..]).unwrap();
        let at = footer_offset as usize;
        Parts {
            header: image[..header_len].to_vec(),
            chunks: image[header_len..at].to_vec(),
            footer: image[at..tail].to_vec(),
            footer_offset,
        }
    }

    /// The image again, with a checksum that matches its metadata.
    fn seal(&self) -> Vec<u8> {
        let tail = format::encode_tail(&self.header, &self.footer, self.footer_offset);
        [&self.header, &self.chunks, &self.footer, &tail[..]].concat()
    }

    fn edit_header(&mut self, edit: impl FnOnce(&mut Header)) {
        let mut header = Header::decode(&self.header).unwrap();
        edit(&mut header);
        self.header = header.encode();
    }

    fn edit_footer(&mut self, edit: impl FnOnce(&mut Footer)) {
        let mut footer = Footer::decode(&self.footer).unwrap();
        edit(&mut footer);
        self.footer = footer.encode();
    }
}

/// One lie told in a file's metadata.
type Forge = fn(&mut Parts);

#[test]
fn every_index_check_refuses_a_resealed_forgery() {
    let image = fixture();
    assert_eq!(Parts::of(&image).seal(), image, "re-sealing is exact");

    let cases: [(&str, Forge); 9] = [
        ("chunk size exceeds the format's cap", |p| {
            p.edit_header(|h| h.jobs_per_chunk = MAX_JOBS_PER_CHUNK + 1)
        }),
        ("chunk offsets not contiguous", |p| {
            p.edit_footer(|f| f.chunks[1].offset += 1)
        }),
        ("chunk length overflow", |p| {
            p.edit_footer(|f| f.chunks[0].block_len = u64::MAX)
        }),
        ("chunk job count exceeds the header's chunk size", |p| {
            p.edit_header(|h| h.jobs_per_chunk = 15)
        }),
        ("chunks do not abut the footer", |p| {
            p.edit_footer(|f| f.chunks[2].block_len -= 1)
        }),
        ("summary job count disagrees with chunk index", |p| {
            p.edit_footer(|f| f.summary.jobs += 1)
        }),
        ("footer lacks the zone-map section", |p| {
            let chunks = Footer::decode(&p.footer).unwrap().chunks.len();
            let zones = 4 + chunks * 16 * swim_store::ZONE_COLUMNS;
            p.footer.truncate(p.footer.len() - zones)
        }),
        ("footer offset past end of file", |p| {
            p.footer_offset = u64::MAX
        }),
        ("custom kind label longer than file", |p| {
            p.header[20..24].copy_from_slice(&u32::MAX.to_le_bytes())
        }),
    ];
    for (want, forge) in cases {
        let mut parts = Parts::of(&image);
        forge(&mut parts);
        match Store::from_vec(parts.seal()) {
            Err(StoreError::Corrupt { context }) => assert_eq!(context, want),
            other => panic!("{want}: {other:?}"),
        }
    }
}

#[test]
fn every_other_version_is_refused_at_every_entry_point() {
    let dir = std::env::temp_dir().join(format!("swim-store-forged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for version in [0u16, 1, 2, 3, 4, 6, u16::MAX] {
        let mut image = fixture();
        image[8..10].copy_from_slice(&version.to_le_bytes());
        let path = dir.join(format!("v{version}.swim"));
        std::fs::write(&path, &image).unwrap();
        for opened in [Store::from_vec(image), Store::open(&path)] {
            match opened {
                Err(StoreError::UnsupportedVersion(v)) => assert_eq!(v, version),
                other => panic!("version {version}: {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
