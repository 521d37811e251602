//! Memoization of scalar predictor results.
//!
//! Several memoized evaluations (CNR, RepCap, baseline subcircuit
//! scoring) reduce to one journaled `f64` plus an execution count, and
//! all of them go through [`memoize_scalar`]. The payload is a tiny text
//! format that keeps entries human-inspectable on disk while
//! round-tripping the value **bit-for-bit**: the `f64` is stored as its
//! raw bit pattern, so a hit reproduces exactly what recomputation would
//! have produced.

use crate::key::CacheKey;
use crate::store::Cache;

/// Memoizes one `(value, executions)` evaluation: a decodable entry
/// under `key` replays both bit for bit; otherwise `compute` runs and its
/// result is stored if the value is finite (a non-finite value is a
/// fault for the caller to handle, never a result to replay). Without a
/// cache, `compute` runs in place and `key` is never built.
///
/// # Errors
///
/// Passes through `compute`'s error; nothing is stored then.
pub fn memoize_scalar<E>(
    cache: Option<&Cache>,
    key: impl FnOnce() -> CacheKey,
    compute: impl FnOnce() -> Result<(f64, u64), E>,
) -> Result<(f64, u64), E> {
    let Some(cache) = cache else {
        return compute();
    };
    let key = key();
    if let Some((bits, executions)) = cache.get(&key).as_deref().and_then(decode_cached_value) {
        return Ok((f64::from_bits(bits), executions));
    }
    let (value, executions) = compute()?;
    if value.is_finite() {
        cache.put(&key, &encode_cached_value(value.to_bits(), executions));
    }
    Ok((value, executions))
}

/// Encodes a scalar result: the `f64` bit pattern plus the execution
/// count, so a hit reproduces the record a recompute would have written,
/// bit for bit.
fn encode_cached_value(value_bits: u64, executions: u64) -> Vec<u8> {
    format!("v {value_bits:016x} {executions:x}").into_bytes()
}

/// Inverse of [`encode_cached_value`]; `None` on any malformed payload
/// (the caller then falls back to recomputing).
fn decode_cached_value(payload: &[u8]) -> Option<(u64, u64)> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut parts = text.split(' ');
    if parts.next()? != "v" {
        return None;
    }
    let bits = u64::from_str_radix(parts.next()?, 16).ok()?;
    let executions = u64::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((bits, executions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bit_patterns() {
        for value in [0.0f64, -0.0, 1.5, -3.25e-300, f64::NAN, f64::INFINITY] {
            let encoded = encode_cached_value(value.to_bits(), 42);
            let (bits, execs) = decode_cached_value(&encoded).expect("well-formed");
            assert_eq!(bits, value.to_bits());
            assert_eq!(execs, 42);
        }
    }

    #[test]
    fn memoize_replays_hits_and_stores_only_finite_values() {
        let cache = Cache::memory_only(8);
        let key = |tag: &str| crate::KeyBuilder::new(tag).finish();
        let fresh = |v: f64| move || Ok::<_, ()>((v, 3));
        let uncached = memoize_scalar(None, || unreachable!("no cache, no key"), fresh(0.5));
        assert_eq!(uncached, Ok((0.5, 3)));
        // A cold miss computes and stores; the warm hit replays it.
        assert_eq!(memoize_scalar(Some(&cache), || key("a"), fresh(0.25)), Ok((0.25, 3)));
        assert_eq!(memoize_scalar(Some(&cache), || key("a"), fresh(9.0)), Ok((0.25, 3)));
        // Non-finite values and errors pass through and are never stored.
        let nan = memoize_scalar(Some(&cache), || key("b"), fresh(f64::NAN));
        assert!(nan.is_ok_and(|(v, _)| v.is_nan()));
        assert_eq!(memoize_scalar(Some(&cache), || key("c"), || Err::<(f64, u64), _>(7)), Err(7));
        assert!(cache.get(&key("b")).is_none() && cache.get(&key("c")).is_none());
    }

    #[test]
    fn rejects_malformed_payloads() {
        assert_eq!(decode_cached_value(b""), None);
        assert_eq!(decode_cached_value(b"w 0 0"), None);
        assert_eq!(decode_cached_value(b"v zz 0"), None);
        assert_eq!(decode_cached_value(b"v 0"), None);
        assert_eq!(decode_cached_value(b"v 0 0 trailing"), None);
        assert_eq!(decode_cached_value(&[0xff, 0xfe]), None);
    }
}
